package vector

import (
	"testing"
	"testing/quick"
)

func TestNewAndAccessors(t *testing.T) {
	cases := []struct {
		typ   Type
		width int
		name  string
	}{
		{I16, 2, "schr"},
		{I32, 4, "sint"},
		{I64, 8, "slng"},
		{F64, 8, "dbl"},
		{Str, 16, "str"},
	}
	for _, c := range cases {
		v := New(c.typ, 8)
		if v.Type() != c.typ {
			t.Errorf("%s: type mismatch", c.name)
		}
		if v.Len() != 0 || v.Cap() != 8 {
			t.Errorf("%s: len/cap = %d/%d, want 0/8", c.name, v.Len(), v.Cap())
		}
		if c.typ.Width() != c.width {
			t.Errorf("%s: width = %d, want %d", c.name, c.typ.Width(), c.width)
		}
		if c.typ.String() != c.name {
			t.Errorf("type name = %s, want %s", c.typ.String(), c.name)
		}
	}
}

func TestTypeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("I32 accessor on I64 vector did not panic")
		}
	}()
	New(I64, 4).I32()
}

func TestSetLenBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SetLen beyond capacity did not panic")
		}
	}()
	New(I32, 4).SetLen(5)
}

func TestFromWrapsWithoutCopy(t *testing.T) {
	data := []int32{1, 2, 3}
	v := FromI32(data)
	if v.Len() != 3 {
		t.Fatalf("len = %d", v.Len())
	}
	v.I32()[0] = 99
	if data[0] != 99 {
		t.Error("FromI32 copied the slice")
	}
}

func TestSliceZeroCopy(t *testing.T) {
	v := FromI64([]int64{10, 20, 30, 40})
	s := v.Slice(1, 3)
	if s.Len() != 2 || s.I64()[0] != 20 || s.I64()[1] != 30 {
		t.Fatalf("slice contents wrong: %v", s.I64())
	}
	s.I64()[0] = 99
	if v.I64()[1] != 99 {
		t.Error("Slice copied the data")
	}
}

func TestCloneIsDeep(t *testing.T) {
	v := FromStr([]string{"a", "b"})
	c := v.Clone()
	c.Str()[0] = "z"
	if v.Str()[0] != "a" {
		t.Error("Clone aliases the original")
	}
}

func TestGetHelpers(t *testing.T) {
	if got := FromI16([]int16{-5}).GetI64(0); got != -5 {
		t.Errorf("GetI64(i16) = %d", got)
	}
	if got := FromI32([]int32{7}).GetF64(0); got != 7 {
		t.Errorf("GetF64(i32) = %v", got)
	}
	if got := FromStr([]string{"x"}).GetStr(0); got != "x" {
		t.Errorf("GetStr = %q", got)
	}
}

func TestConstVectors(t *testing.T) {
	if ConstI32(4).Len() != 1 || ConstI32(4).I32()[0] != 4 {
		t.Error("ConstI32 wrong")
	}
	if ConstStr("q").GetStr(0) != "q" {
		t.Error("ConstStr wrong")
	}
	if ConstF64(2.5).F64()[0] != 2.5 {
		t.Error("ConstF64 wrong")
	}
	if ConstI64(-1).I64()[0] != -1 {
		t.Error("ConstI64 wrong")
	}
	if ConstI16(3).I16()[0] != 3 {
		t.Error("ConstI16 wrong")
	}
}

func TestBatchLiveAndSelectivity(t *testing.T) {
	b := NewBatch(FromI32([]int32{1, 2, 3, 4}))
	if b.Live() != 4 || b.Selectivity() != 1 {
		t.Errorf("dense live/sel = %d/%v", b.Live(), b.Selectivity())
	}
	b.Sel = []int32{0, 2}
	if b.Live() != 2 || b.Selectivity() != 0.5 {
		t.Errorf("selected live/sel = %d/%v", b.Live(), b.Selectivity())
	}
}

func TestBatchCompact(t *testing.T) {
	b := NewBatch(FromI32([]int32{10, 20, 30, 40}), FromStr([]string{"a", "b", "c", "d"}))
	b.Sel = []int32{1, 3}
	c := b.Compact()
	if c.Sel != nil || c.N != 2 {
		t.Fatalf("compact: sel=%v n=%d", c.Sel, c.N)
	}
	if c.Cols[0].I32()[0] != 20 || c.Cols[0].I32()[1] != 40 {
		t.Errorf("compact col0 = %v", c.Cols[0].I32())
	}
	if c.Cols[1].Str()[0] != "b" || c.Cols[1].Str()[1] != "d" {
		t.Errorf("compact col1 = %v", c.Cols[1].Str())
	}
}

func TestBatchCompactNoSelIsIdentity(t *testing.T) {
	b := NewBatch(FromI32([]int32{1}))
	if b.Compact() != b {
		t.Error("Compact without selection should return the batch itself")
	}
}

func TestSchemaIndexOf(t *testing.T) {
	s := Schema{{Name: "a", Type: I32}, {Name: "b", Type: Str}}
	if s.IndexOf("b") != 1 || s.IndexOf("z") != -1 {
		t.Error("IndexOf wrong")
	}
	if s.MustIndexOf("a") != 0 {
		t.Error("MustIndexOf wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustIndexOf on missing column did not panic")
		}
	}()
	s.MustIndexOf("zzz")
}

// Property: Compact preserves exactly the selected values, in order.
func TestCompactProperty(t *testing.T) {
	f := func(vals []int64, picks []uint8) bool {
		if len(vals) == 0 {
			return true
		}
		sel := Sel{} // empty but non-nil: an empty selection, not "all live"
		for _, p := range picks {
			sel = append(sel, int32(int(p)%len(vals)))
		}
		// Selection vectors are ascending by contract.
		for i := 1; i < len(sel); i++ {
			if sel[i] < sel[i-1] {
				sel[i] = sel[i-1]
			}
		}
		b := NewBatch(FromI64(vals))
		b.Sel = sel
		c := b.Compact()
		if c.N != len(sel) {
			return false
		}
		for j, i := range sel {
			if c.Cols[0].I64()[j] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
