package core

import (
	"testing"

	"microadapt/internal/hw"
)

func TestPartitionLabelRoundTrip(t *testing.T) {
	for _, label := range []string{
		"Q1/sel/select_<=_sint_col_sint_val#0",
		"Q12/li/select_in_str_col#2",
		"plain",
	} {
		for _, part := range []int{0, 3, 12} {
			tagged := PartitionLabel(label, part)
			if tagged == label {
				t.Fatalf("PartitionLabel(%q, %d) did not tag", label, part)
			}
			if got := BaseLabel(tagged); got != label {
				t.Errorf("BaseLabel(%q) = %q, want %q", tagged, got, label)
			}
		}
		if got := BaseLabel(label); got != label {
			t.Errorf("BaseLabel(%q) = %q, want unchanged", label, got)
		}
	}
	// Labels that merely look tag-ish must survive: no digits after ~p, or
	// non-digit content.
	for _, label := range []string{"a~p", "a~px", "a~p1x"} {
		if got := BaseLabel(label); got != label {
			t.Errorf("BaseLabel(%q) = %q, want unchanged", label, got)
		}
	}
}

// TestFragmentSessions: default fragment spawning shares the dictionary,
// machine and vector size, tags instance labels with the partition, and
// registers fragments on the parent for AllInstances.
func TestFragmentSessions(t *testing.T) {
	d := NewDictionary()
	d.AddFlavor("p", hw.ClassMapArith, testFlavor("a", 1, 5))
	d.AddFlavor("p", hw.ClassMapArith, testFlavor("b", 2, 3))
	s := NewSession(d, hw.Machine1(), WithVectorSize(64), WithSeed(9), WithParallelism(4))
	if s.Parallelism() != 4 || s.partition != -1 {
		t.Fatalf("parallelism/partition = %d/%d, want 4/-1", s.Parallelism(), s.partition)
	}
	s.Instance("p", "root")

	f0 := s.Fragment(0)
	f1 := s.Fragment(1)
	if f0.Dict != s.Dict || f0.Machine != s.Machine || f0.VectorSize != 64 {
		t.Error("fragment must share dictionary/machine/vector size")
	}
	if f0.partition != 0 || f1.partition != 1 {
		t.Errorf("fragment partitions = %d/%d", f0.partition, f1.partition)
	}
	if f0.Parallelism() != 1 {
		t.Error("fragments must not fan out further")
	}
	if f0.seed == s.seed || f0.seed == f1.seed {
		t.Error("fragments must seed their own random streams")
	}
	i0 := f0.Instance("p", "node")
	i1 := f1.Instance("p", "node")
	if i0.Label == i1.Label {
		t.Error("fragment instances of different partitions must have distinct labels")
	}
	if BaseLabel(i0.Label) != "node" || BaseLabel(i1.Label) != "node" {
		t.Errorf("fragment labels %q/%q must collapse to the plan label", i0.Label, i1.Label)
	}
	if got := len(s.Fragments()); got != 2 {
		t.Fatalf("fragments = %d, want 2", got)
	}
	if got := len(s.AllInstances()); got != 3 {
		t.Errorf("AllInstances = %d, want 3 (root + 2 fragment nodes)", got)
	}
}

// TestFragmentSpawnerOverride: a configured spawner decides the fragment
// session; Fragment still applies the partition tag and registration.
func TestFragmentSpawnerOverride(t *testing.T) {
	d := NewDictionary()
	d.AddFlavor("p", hw.ClassMapArith, testFlavor("a", 1, 5))
	spawned := 0
	s := NewSession(d, hw.Machine1(), WithFragmentSpawner(func(part int) *Session {
		spawned++
		return NewSession(d, hw.Machine1(), WithVectorSize(32), WithSeed(int64(100+part)))
	}))
	fs := s.Fragment(2)
	if spawned != 1 {
		t.Fatalf("spawner invoked %d times, want 1", spawned)
	}
	if fs.VectorSize != 32 {
		t.Error("spawner-built session was replaced")
	}
	if fs.partition != 2 {
		t.Errorf("partition = %d, want 2 (set by Fragment)", fs.partition)
	}
	inst := fs.Instance("p", "n")
	if BaseLabel(inst.Label) != "n" || inst.Label == "n" {
		t.Errorf("spawned fragment label %q must be partition-tagged", inst.Label)
	}
}

// TestFragmentInheritsCallerChooser: a caller-set chooser factory carries
// over to default-spawned fragments; the built-in default (which owns the
// parent's rand) must not.
func TestFragmentInheritsCallerChooser(t *testing.T) {
	d := NewDictionary()
	d.AddFlavor("p", hw.ClassMapArith, testFlavor("a", 1, 5))
	d.AddFlavor("p", hw.ClassMapArith, testFlavor("b", 2, 3))
	s := NewSession(d, hw.Machine1(), WithChooser(func(n int) Chooser { return NewFixed(1) }))
	fs := s.Fragment(0)
	if _, ok := fs.Instance("p", "n").Chooser().(*Fixed); !ok {
		t.Error("caller-set chooser factory should reach fragments")
	}

	sDef := NewSession(d, hw.Machine1())
	fsDef := sDef.Fragment(0)
	if _, ok := fsDef.Instance("p", "n").Chooser().(*VWGreedy); !ok {
		t.Error("default-policy fragment should build its own vw-greedy")
	}
}
