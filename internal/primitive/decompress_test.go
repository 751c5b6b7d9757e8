package primitive

import (
	"testing"

	"microadapt/internal/vector"
)

// TestDecompressBaselineAlwaysRegistered: whatever subset of the strategy
// axis a caller configures, the baseline flavors an encoded scan needs —
// eager decode and decompress-then-compare — must exist, or EncodedScan
// would panic resolving its signatures.
func TestDecompressBaselineAlwaysRegistered(t *testing.T) {
	for _, decompress := range [][]string{
		nil,
		{"eager"},
		{"lazy"},
		{"oncompressed"},
		{"lazy", "oncompressed"},
		{"eager", "lazy", "oncompressed"},
	} {
		o := Defaults()
		o.Decompress = decompress
		d := NewDictionary(o)
		scan := d.MustLookup(DecompressSig(vector.I32))
		if scan.FlavorIndex("eager") < 0 {
			t.Errorf("Decompress=%v: scan primitive lacks the eager baseline", decompress)
		}
		sel := d.MustLookup(EncSelSig("<", vector.I32))
		if sel.FlavorIndex("decode") < 0 {
			t.Errorf("Decompress=%v: selenc primitive lacks the decode baseline", decompress)
		}
		wantLazy := o.hasStrategy("lazy")
		if got := scan.FlavorIndex("lazy") >= 0; got != wantLazy {
			t.Errorf("Decompress=%v: lazy registered=%v, want %v", decompress, got, wantLazy)
		}
		wantOC := o.hasStrategy("oncompressed")
		if got := sel.FlavorIndex("oncompressed") >= 0; got != wantOC {
			t.Errorf("Decompress=%v: oncompressed registered=%v, want %v", decompress, got, wantOC)
		}
	}
}

// TestDecompressSetShape: the widened set carries exactly the two-flavor
// families the storage scenario competes over.
func TestDecompressSetShape(t *testing.T) {
	d := NewDictionary(DecompressSet())
	if n := len(d.MustLookup(DecompressSig(vector.I32)).Flavors); n != 2 {
		t.Errorf("scan_decompress flavors = %d, want 2 (eager, lazy)", n)
	}
	if n := len(d.MustLookup(EncSelSig(">=", vector.Str)).Flavors); n != 2 {
		t.Errorf("selenc flavors = %d, want 2 (decode, oncompressed)", n)
	}
	// The default build keeps the family single-flavored.
	d = NewDictionary(Defaults())
	if n := len(d.MustLookup(DecompressSig(vector.I32)).Flavors); n != 1 {
		t.Errorf("default scan_decompress flavors = %d, want 1", n)
	}
}
