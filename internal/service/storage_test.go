package service

import (
	"strings"
	"testing"

	"microadapt/internal/core"
	"microadapt/internal/engine"
	"microadapt/internal/hw"
	"microadapt/internal/primitive"
	"microadapt/internal/storage"
	"microadapt/internal/tpch"
)

// forceEncodings re-encodes a table pinning the named columns to specific
// encodings (the analyzer picks the rest).
func forceEncodings(t *testing.T, tab *engine.Table, pins map[string]storage.Encoding) {
	t.Helper()
	cols := make([]storage.EncodedColumn, len(tab.Sch))
	for i, c := range tab.Sch {
		if e, ok := pins[c.Name]; ok {
			enc, err := storage.EncodeColumnAs(tab.Cols[i], e)
			if err != nil {
				t.Fatalf("pinning %s to %s: %v", c.Name, e, err)
			}
			cols[i] = enc
			continue
		}
		cols[i] = storage.EncodeColumn(tab.Cols[i])
	}
	tab.Enc = storage.NewEncodedTable(tab.Name, tab.Sch, cols)
}

// decompressKeys runs Q6 over the db and returns the InstanceKeys of every
// decompression-family instance, harvesting the session into cache.
func decompressKeys(t *testing.T, db *tpch.DB, cache *FlavorCache) map[string]bool {
	t.Helper()
	s := core.NewSession(primitive.NewDictionary(primitive.Everything()), hw.Machine1(),
		core.WithVectorSize(128), core.WithSeed(7))
	if _, err := tpch.Query(6).Run(db, s); err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{}
	for _, inst := range s.AllInstances() {
		sig := inst.Prim.Sig
		if strings.HasPrefix(sig, "scan_decompress_") || strings.HasPrefix(sig, "selenc_") {
			keys[primitive.InstanceKeyOf(inst)] = true
		}
	}
	cache.Harvest(s)
	return keys
}

// TestInstanceKeysStableAcrossEncodings is the warm-start-fragmentation
// regression: when the analyzer (or an operator) re-encodes a column, the
// same logical scan must keep producing the same primitive.InstanceKeys —
// decompression signatures are keyed by element type and plan position,
// never by encoding — so the FlavorCache neither fragments nor grows when
// the encoding flips underneath it.
func TestInstanceKeysStableAcrossEncodings(t *testing.T) {
	cache := NewFlavorCache()

	dbA := tpch.Generate(0.002, 7)
	forceEncodings(t, dbA.Lineitem, map[string]storage.Encoding{
		"l_shipdate": storage.RLE,
		"l_quantity": storage.Dict,
	})
	keysA := decompressKeys(t, dbA, cache)
	if len(keysA) == 0 {
		t.Fatal("no decompression instances on encoded storage")
	}
	lenAfterA := cache.Len()

	dbB := tpch.Generate(0.002, 7)
	forceEncodings(t, dbB.Lineitem, map[string]storage.Encoding{
		"l_shipdate": storage.BitPack,
		"l_quantity": storage.BitPack,
	})
	keysB := decompressKeys(t, dbB, cache)

	if len(keysA) != len(keysB) {
		t.Fatalf("key sets differ in size: %d vs %d\nA: %v\nB: %v", len(keysA), len(keysB), keysA, keysB)
	}
	for k := range keysA {
		if !keysB[k] {
			t.Errorf("key %q present under RLE/Dict but not under BitPack", k)
		}
	}
	if got := cache.Len(); got != lenAfterA {
		t.Errorf("cache fragmented across encodings: %d keys after A, %d after B", lenAfterA, got)
	}
	for k := range keysA {
		if !strings.Contains(k, "@") {
			continue
		}
		for _, e := range []string{"rle", "dict", "bitpack", "flat"} {
			if strings.Contains(k, e) {
				t.Errorf("InstanceKey %q leaks the encoding name %q", k, e)
			}
		}
	}
}

// TestWarmStartCrossesEncodings: knowledge harvested under one encoding
// must seed priors for the same scan under another encoding — the whole
// point of encoding-free keys.
func TestWarmStartCrossesEncodings(t *testing.T) {
	cache := NewFlavorCache()
	dbA := tpch.Generate(0.002, 7)
	forceEncodings(t, dbA.Lineitem, map[string]storage.Encoding{"l_shipdate": storage.RLE})
	keys := decompressKeys(t, dbA, cache)

	dict := primitive.NewDictionary(primitive.Everything())
	seeded := 0
	for k := range keys {
		sig := k[:strings.Index(k, "@")]
		prim, ok := dict.Lookup(sig)
		if !ok {
			t.Fatalf("key %q references unknown signature", k)
		}
		if priors, any := cache.Priors(k, primitive.FlavorNames(prim)); any {
			seeded++
			if len(priors) != len(prim.Flavors) {
				t.Errorf("priors for %q have %d arms, want %d", k, len(priors), len(prim.Flavors))
			}
		}
	}
	if seeded == 0 {
		t.Error("no decompression instance key produced warm-start priors")
	}
}

// TestServiceEncodedStorage: the service flag encodes the database and
// repeated queries still run with warm start across sessions.
func TestServiceEncodedStorage(t *testing.T) {
	db := tpch.Generate(0.002, 7)
	svc := New(db, Config{
		VectorSize: 128, Seed: 3,
		EncodedStorage: true, WarmStart: true,
	})
	if !db.Encoded() {
		t.Fatal("EncodedStorage did not encode the database")
	}
	want := ""
	for i := 0; i < 3; i++ {
		tab, _, err := svc.Execute(6)
		if err != nil {
			t.Fatal(err)
		}
		fp := engine.TableString(tab, 0)
		if i == 0 {
			want = fp
		} else if fp != want {
			t.Fatalf("run %d diverged on encoded storage", i)
		}
	}
	if svc.Cache().Len() == 0 {
		t.Error("no knowledge harvested from encoded runs")
	}
}
