package cluster

import (
	"math"
	"runtime"
	"testing"
	"testing/quick"
)

func TestAllCatalogSpecsValid(t *testing.T) {
	for _, s := range AllSpecs() {
		if err := s.Validate(); err != nil {
			t.Errorf("spec %s: %v", s.Name, err)
		}
	}
}

func TestSpecValidateRejectsBadSpecs(t *testing.T) {
	tests := []struct {
		name string
		spec TypeSpec
	}{
		{"empty name", TypeSpec{Cores: 1, SpeedFactor: 1, DiskMBps: 1, NetMBps: 1, MapSlots: 1}},
		{"zero cores", TypeSpec{Name: "x", SpeedFactor: 1, DiskMBps: 1, NetMBps: 1, MapSlots: 1}},
		{"zero speed", TypeSpec{Name: "x", Cores: 1, DiskMBps: 1, NetMBps: 1, MapSlots: 1}},
		{"zero disk", TypeSpec{Name: "x", Cores: 1, SpeedFactor: 1, NetMBps: 1, MapSlots: 1}},
		{"negative idle", TypeSpec{Name: "x", Cores: 1, SpeedFactor: 1, DiskMBps: 1, NetMBps: 1, IdleWatts: -1, MapSlots: 1}},
		{"zero map slots", TypeSpec{Name: "x", Cores: 1, SpeedFactor: 1, DiskMBps: 1, NetMBps: 1}},
		{"negative reduce slots", TypeSpec{Name: "x", Cores: 1, SpeedFactor: 1, DiskMBps: 1, NetMBps: 1, MapSlots: 1, ReduceSlots: -1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.spec.Validate(); err == nil {
				t.Error("Validate accepted invalid spec")
			}
		})
	}
}

// TestSpecValidateSlotLimit pins the slot-count bound at its edge: the
// per-machine slot columns are int16, so one more slot than MaxInt16 must
// be rejected rather than wrap.
func TestSpecValidateSlotLimit(t *testing.T) {
	base := TypeSpec{Name: "x", Cores: 1, SpeedFactor: 1, DiskMBps: 1, NetMBps: 1, MapSlots: 1, ReduceSlots: 1}
	tests := []struct {
		name        string
		mapSlots    int
		reduceSlots int
		ok          bool
	}{
		{"map at limit", math.MaxInt16, 1, true},
		{"map past limit", math.MaxInt16 + 1, 1, false},
		{"reduce at limit", 1, math.MaxInt16, true},
		{"reduce past limit", 1, math.MaxInt16 + 1, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			spec := base
			spec.MapSlots, spec.ReduceSlots = tt.mapSlots, tt.reduceSlots
			if err := spec.Validate(); (err == nil) != tt.ok {
				t.Errorf("Validate(map=%d, reduce=%d) = %v, want ok=%v", tt.mapSlots, tt.reduceSlots, err, tt.ok)
			}
		})
	}
}

func TestPowerAtClampsUtilization(t *testing.T) {
	s := SpecDesktop
	if got := s.PowerAt(-0.5); got != s.IdleWatts {
		t.Errorf("PowerAt(-0.5) = %v, want idle %v", got, s.IdleWatts)
	}
	if got := s.PowerAt(2); got != s.PeakWatts() {
		t.Errorf("PowerAt(2) = %v, want peak %v", got, s.PeakWatts())
	}
	mid := s.PowerAt(0.5)
	want := s.IdleWatts + 0.5*s.AlphaWatts
	if math.Abs(mid-want) > 1e-9 {
		t.Errorf("PowerAt(0.5) = %v, want %v", mid, want)
	}
}

func TestPowerEnvelopeHeterogeneity(t *testing.T) {
	// The calibration that drives every motivation result: the desktop is
	// cheaper at idle, the Xeon is cheaper per unit of added utilization.
	if SpecDesktop.IdleWatts >= SpecXeonE5.IdleWatts {
		t.Error("desktop idle power should be below Xeon idle power")
	}
	if SpecDesktop.AlphaWatts <= SpecXeonE5.AlphaWatts {
		t.Error("desktop power slope should be above Xeon slope")
	}
	// Per-slot idle attribution (Eq. 2 first term) must favor the
	// slot-dense Xeon, otherwise Fig. 9a's CPU-task affinity cannot appear.
	deskPerSlot := SpecDesktop.IdleWatts / float64(SpecDesktop.Slots())
	xeonPerSlot := SpecXeonE5.IdleWatts / float64(SpecXeonE5.Slots())
	if xeonPerSlot >= deskPerSlot {
		t.Errorf("idle watts per slot: xeon %.2f should be below desktop %.2f", xeonPerSlot, deskPerSlot)
	}
}

// oneMachine returns a handle to the single machine of a fresh one-node
// cluster of the given type.
func oneMachine(spec *TypeSpec) Machine {
	return MustNew(Group{Spec: spec, Count: 1}).Machine(0)
}

func TestMachineSlotAccounting(t *testing.T) {
	m := oneMachine(SpecDesktop) // 4 map + 2 reduce
	for i := 0; i < 4; i++ {
		if !m.AcquireMap(0.1) {
			t.Fatalf("AcquireMap #%d failed", i)
		}
	}
	if m.AcquireMap(0.1) {
		t.Error("AcquireMap succeeded beyond capacity")
	}
	if m.FreeMapSlots() != 0 || m.RunningMap() != 4 {
		t.Errorf("map slots free=%d running=%d, want 0/4", m.FreeMapSlots(), m.RunningMap())
	}
	if !m.AcquireReduce(0.05) || !m.AcquireReduce(0.05) {
		t.Fatal("AcquireReduce failed with free slots")
	}
	if m.AcquireReduce(0.05) {
		t.Error("AcquireReduce succeeded beyond capacity")
	}
	if m.Running() != 6 {
		t.Errorf("Running() = %d, want 6", m.Running())
	}
	wantUtil := 4*0.1 + 2*0.05
	if math.Abs(m.Utilization()-wantUtil) > 1e-9 {
		t.Errorf("Utilization() = %v, want %v", m.Utilization(), wantUtil)
	}
	m.ReleaseMap(0.1)
	m.ReleaseReduce(0.05)
	if m.FreeMapSlots() != 1 || m.FreeReduceSlots() != 1 {
		t.Error("release did not free slots")
	}
}

func TestMachineFailedAcquireHasNoSideEffects(t *testing.T) {
	m := oneMachine(SpecAtom) // 2 map + 1 reduce
	m.AcquireMap(0.2)
	m.AcquireMap(0.2)
	before := m.Utilization()
	if m.AcquireMap(0.2) {
		t.Fatal("acquire should have failed")
	}
	if m.Utilization() != before {
		t.Error("failed acquire changed utilization")
	}
}

func TestMachineReleaseUnheldPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("releasing unheld slot did not panic")
		}
	}()
	oneMachine(SpecAtom).ReleaseMap(0.1)
}

func TestMachineUtilizationNeverNegative(t *testing.T) {
	m := oneMachine(SpecDesktop)
	// Acquire/release with slightly mismatched float math many times.
	f := func(shares []float64) bool {
		for _, s := range shares {
			s = math.Abs(math.Mod(s, 0.2))
			if m.AcquireMap(s) {
				m.ReleaseMap(s)
			}
		}
		return m.Utilization() >= 0 && m.Power() >= m.Spec().IdleWatts
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClusterNew(t *testing.T) {
	c, err := New(
		Group{Spec: SpecDesktop, Count: 2},
		Group{Spec: SpecAtom, Count: 1},
	)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if c.Size() != 3 {
		t.Fatalf("Size() = %d, want 3", c.Size())
	}
	for i, m := range c.Machines() {
		if m.ID() != i {
			t.Errorf("machine %d has ID %d", i, m.ID())
		}
	}
	if got := len(c.ByType("Desktop")); got != 2 {
		t.Errorf("ByType(Desktop) = %d machines, want 2", got)
	}
	if got := len(c.ByType("Atom")); got != 1 {
		t.Errorf("ByType(Atom) = %d machines, want 1", got)
	}
	names := c.TypeNames()
	if len(names) != 2 || names[0] != "Atom" || names[1] != "Desktop" {
		t.Errorf("TypeNames() = %v, want [Atom Desktop]", names)
	}
}

func TestClusterNewRejectsEmptyAndInvalid(t *testing.T) {
	if _, err := New(); err == nil {
		t.Error("New() with no groups should error")
	}
	if _, err := New(Group{Spec: SpecDesktop, Count: 0}); err == nil {
		t.Error("New with zero count should error")
	}
	bad := &TypeSpec{Name: ""}
	if _, err := New(Group{Spec: bad, Count: 1}); err == nil {
		t.Error("New with invalid spec should error")
	}
}

// TestClusterNewBoundsFleetSize pins the fleet-size bound: machine IDs are
// int32, so a total past MaxMachines — from one group, from a sum, or from
// a sum that overflows int — must be rejected before any fleet-sized
// allocation.
func TestClusterNewBoundsFleetSize(t *testing.T) {
	tests := []struct {
		name   string
		counts []int
	}{
		{"one group past the bound", []int{MaxMachines + 1}},
		{"two groups summing past the bound", []int{MaxMachines - 1, 2}},
		{"two groups overflowing int", []int{math.MaxInt, math.MaxInt}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			groups := make([]Group, len(tt.counts))
			for i, n := range tt.counts {
				groups[i] = Group{Spec: SpecDesktop, Count: n}
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			c, err := New(groups...)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatalf("New(%v) built a fleet of %d machines", tt.counts, c.Size())
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
				t.Errorf("rejecting %v allocated %d bytes", tt.counts, grew)
			}
		})
	}
	// Fleets within the bound still build, IDs in group order.
	c, err := New(Group{Spec: SpecDesktop, Count: 8 * 64}, Group{Spec: SpecAtom, Count: 64})
	if err != nil {
		t.Fatalf("New(576 machines): %v", err)
	}
	if c.Size() != 576 || c.Machines()[511].Spec() != SpecDesktop || c.Machines()[512].Spec() != SpecAtom {
		t.Errorf("576-machine fleet built as %d machines with a wrong type order", c.Size())
	}
}

func TestTestbedComposition(t *testing.T) {
	c := Testbed()
	want := map[string]int{
		"Desktop": 8, "T110": 3, "T420": 2, "T320": 1, "T620": 1, "Atom": 1,
	}
	if c.Size() != 16 {
		t.Fatalf("testbed size = %d, want 16", c.Size())
	}
	for name, n := range want {
		if got := len(c.ByType(name)); got != n {
			t.Errorf("testbed has %d %s machines, want %d", got, name, n)
		}
	}
}

func TestClusterSlotTotals(t *testing.T) {
	c := CaseStudyPair() // desktop 4+2, xeon 12+6
	if got := c.TotalMapSlots(); got != 16 {
		t.Errorf("TotalMapSlots = %d, want 16", got)
	}
	if got := c.TotalReduceSlots(); got != 8 {
		t.Errorf("TotalReduceSlots = %d, want 8", got)
	}
	if got := c.TotalSlots(); got != 24 {
		t.Errorf("TotalSlots = %d, want 24", got)
	}
}

func TestClusterMachineLookup(t *testing.T) {
	c := Testbed()
	if m := c.Machine(0); m.ID() != 0 {
		t.Error("Machine(0) returned wrong machine")
	}
	defer func() {
		if recover() == nil {
			t.Error("Machine(-1) did not panic")
		}
	}()
	c.Machine(-1)
}
