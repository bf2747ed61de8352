package cluster

import (
	"strings"
	"testing"
)

func TestInternSameSpecPointerSharesTypeID(t *testing.T) {
	// The same spec pointer registered through two groups interns to one
	// table entry.
	c := MustNew(
		Group{Spec: SpecAtom, Count: 2},
		Group{Spec: SpecDesktop, Count: 1},
		Group{Spec: SpecAtom, Count: 3},
	)
	if got := c.NumTypes(); got != 2 {
		t.Fatalf("NumTypes() = %d, want 2", got)
	}
	atoms := c.ByType("Atom")
	if len(atoms) != 5 {
		t.Fatalf("ByType(Atom) = %d machines, want 5", len(atoms))
	}
	first := atoms[0].Type()
	for _, m := range atoms {
		if m.Type() != first {
			t.Errorf("machine %d: TypeID %d, want %d", m.ID(), m.Type(), first)
		}
		if m.Spec() != SpecAtom {
			t.Errorf("machine %d: Spec() is not the interned SpecAtom pointer", m.ID())
		}
	}
}

func TestInternRejectsDuplicateNameDistinctSpec(t *testing.T) {
	other := *SpecAtom // same name, different pointer
	_, err := New(
		Group{Spec: SpecAtom, Count: 1},
		Group{Spec: &other, Count: 1},
	)
	if err == nil {
		t.Fatal("New accepted two distinct specs sharing a name")
	}
	if !strings.Contains(err.Error(), "duplicate registration") {
		t.Errorf("error %q does not mention duplicate registration", err)
	}
}

func TestTypeIDOfLookupAndMiss(t *testing.T) {
	c := CaseStudyPair()
	id, ok := c.TypeIDOf("XeonE5")
	if !ok {
		t.Fatal("TypeIDOf(XeonE5) missed on a fleet that has Xeons")
	}
	if got := c.TypeSpecByID(id); got != SpecXeonE5 {
		t.Errorf("TypeSpecByID(%d) = %v, want SpecXeonE5", id, got)
	}
	if _, ok := c.TypeIDOf("Atom"); ok {
		t.Error("TypeIDOf(Atom) hit on a fleet with no Atoms")
	}
	if _, ok := c.TypeIDOf(""); ok {
		t.Error("TypeIDOf(\"\") hit")
	}
}

func TestTypeSpecByIDOutOfRangePanics(t *testing.T) {
	c := XeonOnly(2)
	defer func() {
		if recover() == nil {
			t.Error("TypeSpecByID past the table did not panic")
		}
	}()
	c.TypeSpecByID(TypeID(c.NumTypes()))
}

func TestCloneSharesInternedTable(t *testing.T) {
	c := Testbed()
	clone := c.Clone()
	if clone.NumTypes() != c.NumTypes() {
		t.Fatalf("clone NumTypes %d, want %d", clone.NumTypes(), c.NumTypes())
	}
	for i := 0; i < c.NumTypes(); i++ {
		id := TypeID(i)
		if clone.TypeSpecByID(id) != c.TypeSpecByID(id) {
			t.Errorf("type %d: clone interned a different spec pointer", i)
		}
	}
}

func TestTestbedTypeTable(t *testing.T) {
	c := Testbed()
	if got := c.NumTypes(); got != 6 {
		t.Fatalf("testbed NumTypes = %d, want 6", got)
	}
	for _, name := range c.TypeNames() {
		id, ok := c.TypeIDOf(name)
		if !ok {
			t.Errorf("TypeIDOf(%s) missed", name)
			continue
		}
		if got := c.TypeSpecByID(id).Name; got != name {
			t.Errorf("TypeSpecByID(TypeIDOf(%s)).Name = %s", name, got)
		}
	}
	// Every machine's typeOf entry resolves to the spec ByType groups it
	// under.
	for _, m := range c.Machines() {
		if c.TypeSpecByID(m.Type()) != m.Spec() {
			t.Errorf("machine %d: type table and Spec() disagree", m.ID())
		}
	}
}

func TestCapabilityScalesSlotsToCores(t *testing.T) {
	cap := Capability(SpecXeonE5) // 24 cores → 15 map, 7 reduce
	if cap.MapSlots != 15 || cap.ReduceSlots != 7 {
		t.Errorf("Capability(XeonE5) slots = %d+%d, want 15+7", cap.MapSlots, cap.ReduceSlots)
	}
	small := Capability(SpecAtom) // 4 cores → 2 map, 1 reduce
	if small.MapSlots != 2 || small.ReduceSlots != 1 {
		t.Errorf("Capability(Atom) slots = %d+%d, want 2+1", small.MapSlots, small.ReduceSlots)
	}
	one := Capability(&TypeSpec{Name: "tiny", Cores: 1, SpeedFactor: 1, DiskMBps: 1, NetMBps: 1, MapSlots: 1})
	if one.MapSlots != 1 || one.ReduceSlots != 1 {
		t.Errorf("Capability floor = %d+%d, want 1+1", one.MapSlots, one.ReduceSlots)
	}
	if SpecXeonE5.MapSlots != 12 {
		t.Error("Capability mutated its input spec")
	}
}

// CaseStudyPair returns the Table I two-machine cluster used by the §II
// motivation experiments: one i7 desktop and one Xeon E5 PowerEdge.
func CaseStudyPair() *Cluster {
	return MustNew(
		Group{Spec: SpecDesktop, Count: 1},
		Group{Spec: SpecXeonE5, Count: 1},
	)
}

// XeonOnly returns a homogeneous Xeon E5 cluster of n machines (the
// Fig. 1c heterogeneous-workload study).
func XeonOnly(n int) *Cluster {
	return MustNew(Group{Spec: SpecXeonE5, Count: n})
}
