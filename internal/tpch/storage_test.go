package tpch

import (
	"strings"
	"sync"
	"testing"

	"microadapt/internal/storage"
)

// encodedDB is testDB's rows resident in compressed form. It encodes a
// view of them (Shard(0, 1)), so tests against testDB never see an Enc
// field appear mid-run.
var encodedDB = sync.OnceValue(func() *DB { return testDB.Shard(0, 1).Encode() })

// TestEncodeShrinksResidentBytes: the analyzer must find real compression
// in TPC-H — clustered dates, small in-list domains, low-cardinality flags.
func TestEncodeShrinksResidentBytes(t *testing.T) {
	db := encodedDB()
	flat, resident := db.StorageFootprint()
	if resident >= flat {
		t.Fatalf("encoded resident bytes %d >= flat %d", resident, flat)
	}
	if ratio := float64(resident) / float64(flat); ratio > 0.8 {
		t.Errorf("compression ratio %.2f, want <= 0.8:\n%s", ratio, db.StorageSummary())
	}
	// The scenario needs non-flat encodings on the hot scan columns.
	for _, col := range []string{"l_shipdate", "l_quantity", "l_discount"} {
		if enc := db.Lineitem.Enc.Col(col); enc.Encoding() == storage.Flat {
			t.Errorf("lineitem %s stayed flat", col)
		}
	}
}

// TestEncodedMatchesFlat: every query over encoded storage scans through
// the adaptive decompression flavor family (eager/lazy decompression or
// operate-on-compressed selection). That its results equal flat storage's
// is the enc-p rows of TestIdentityOracle (internal/dist).
func TestEncodedMatchesFlat(t *testing.T) {
	eachQuery(t, 1, func(t *testing.T, q Spec) {
		for _, inst := range runQuery(t, q, encodedDB()).AllInstances() {
			if strings.HasPrefix(inst.Prim.Sig, "scan_decompress_") || strings.HasPrefix(inst.Prim.Sig, "selenc_") {
				return
			}
		}
		t.Errorf("%s on encoded storage created no decompression instances", q.Name)
	})
}

// TestEncodedExplainAnnotates: explain over an encoded database marks the
// scans and the pushed-down conjuncts.
func TestEncodedExplainAnnotates(t *testing.T) {
	out := Explain(encodedDB(), 6, 4)
	if !strings.Contains(out, "[encoded]") {
		t.Errorf("explain lacks [encoded] scan tag:\n%s", out)
	}
	if !strings.Contains(out, "EncodedRangeScan[morsel]") {
		t.Errorf("explain lacks EncodedRangeScan line:\n%s", out)
	}
	if !strings.Contains(out, "pushdown=") {
		t.Errorf("explain lacks pushdown annotation:\n%s", out)
	}
	// The flat database must render exactly as before (golden tests guard
	// the full output; this is the targeted negative).
	if strings.Contains(Explain(testDB, 6, 4), "[encoded]") {
		t.Error("flat explain gained an [encoded] tag")
	}
}
