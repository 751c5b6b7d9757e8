package tpch

import "microadapt/internal/engine"

// Tables returns the eight base tables in schema order.
func (db *DB) Tables() []*engine.Table {
	return []*engine.Table{
		db.Region, db.Nation, db.Supplier, db.Customer,
		db.Part, db.PartSupp, db.Orders, db.Lineitem,
	}
}

// TableByName resolves a base table by its schema name ("lineitem",
// "orders", ...); the second result is false for unknown names. It is the
// table resolver the plan JSON codec uses to rebuild client-shipped plans
// against this database.
func (db *DB) TableByName(name string) (*engine.Table, bool) {
	for _, t := range db.Tables() {
		if t.Name == name {
			return t, true
		}
	}
	return nil, false
}

// Encode analyzes every base table and makes it resident in compressed
// columnar form: plans then scan through the adaptive decompression
// primitives instead of the flat zero-copy cursor. Encoding is idempotent;
// it returns the database for chaining.
func (db *DB) Encode() *DB {
	for _, t := range db.Tables() {
		engine.EncodeTable(t)
	}
	return db
}

// StorageFootprint returns the flat byte size of all base tables and the
// resident size under the current storage form (equal when not encoded).
func (db *DB) StorageFootprint() (flat, resident int) {
	for _, t := range db.Tables() {
		for i, c := range t.Sch {
			flat += t.Cols[i].Len() * c.Type.Width()
		}
		if t.Enc != nil {
			resident += t.Enc.ResidentBytes()
		} else {
			for i, c := range t.Sch {
				resident += t.Cols[i].Len() * c.Type.Width()
			}
		}
	}
	return flat, resident
}
