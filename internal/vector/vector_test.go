package vector

import "testing"

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
	b := &Batch{N: 4, Cols: []*Vector{FromI32([]int32{1, 2, 3, 4})}}
	if b.Live() != 4 {
		t.Errorf("dense live = %d, want 4", b.Live())
	}
	b.Sel = []int32{0, 2}
	if b.Live() != 2 {
		t.Errorf("selected live = %d, want 2", b.Live())
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
