package cluster

import "fmt"

// Machine catalog reproducing the paper's testbed (Table I and §V-B).
//
// Calibration notes. The paper never publishes the fitted (P_idle, α)
// pairs, so the values below are chosen to land the published *behaviour*:
//
//   - The i7 desktop draws little at idle but has a steep utilization
//     slope; the Xeon servers draw more at idle with a shallow slope. This
//     yields the Fig. 1a throughput/watt crossover in the low-teens
//     task/min range and the Fig. 1b idle-dominated Xeon power split.
//   - Slot counts follow §V-B literally: "Each slave node is configured
//     with four map slots and two reduce slots", regardless of core count
//     (the Atom, with 4 cores, gets 2+1). Uniform slots leave the 24-core
//     Xeons structurally underloaded — exactly Fig. 8b's 20 % T420
//     utilization under Fair — which is the capacity slack E-Ant's
//     affinity matching exploits.
//   - A Hadoop task occupies ≈ 1.6 cores while computing (the JVM runs
//     the mapper plus GC/spill threads; mapreduce.TaskThreads), so a
//     desktop running four CPU-bound maps sits near 80 % utilization
//     while the same four maps leave a 24-core Xeon near 25 %.
//   - Per-core speed factors approximate measured single-thread ratios
//     (E5-class Xeons ≈ 0.8 of the 3.4 GHz i7; the in-order Atom ≈ 0.35).
//   - Disk bandwidth is the effective per-node scan bandwidth under
//     concurrent access; with uniform slots every node lands near
//     30 MB/s per slot, so IO work is placement-neutral and the *energy*
//     axis is what differentiates the fleet.
//
// The resulting per-task energy estimates (Eq. 2) rank machines per
// application as Fig. 9a reports: Wordcount is cheapest on the
// T420-class Xeons, while Grep and Terasort are cheapest on the Atom and
// the desktops.
//
// The §I anecdote also reproduces in ratio form: a 50 GB Wordcount on the
// desktop finishes ~2.5× faster than on the Atom but burns more energy
// (paper: 63 vs 178 min, 183 vs 136 KJ).

// SpecDesktop is the Dell desktop: Core i7, 8×3.4 GHz, 16 GB (Table I).
var SpecDesktop = &TypeSpec{
	Name:        "Desktop",
	Cores:       8,
	SpeedFactor: 1.0,
	MemoryGB:    16,
	DiskMBps:    120,
	NetMBps:     117,
	IdleWatts:   40,
	AlphaWatts:  120,
	MapSlots:    4,
	ReduceSlots: 2,
}

// SpecXeonE5 is the PowerEdge of Table I: Xeon E5, 24×1.9 GHz, 32 GB.
// Hardware-identical to the fleet's T420 (§V-B lists the same core count
// and memory); the separate name keeps case-study output readable.
var SpecXeonE5 = &TypeSpec{
	Name:        "XeonE5",
	Cores:       24,
	SpeedFactor: 0.8,
	MemoryGB:    32,
	DiskMBps:    144,
	NetMBps:     117,
	IdleWatts:   90,
	AlphaWatts:  100,
	MapSlots:    12,
	ReduceSlots: 6,
}

// SpecT420 is the PowerEdge T420: 24-core Xeon, 32 GB (§V-B).
var SpecT420 = &TypeSpec{
	Name:        "T420",
	Cores:       24,
	SpeedFactor: 0.8,
	MemoryGB:    32,
	DiskMBps:    144,
	NetMBps:     117,
	IdleWatts:   90,
	AlphaWatts:  100,
	MapSlots:    12,
	ReduceSlots: 6,
}

// SpecT110 is the PowerEdge T110: 8-core Xeon, 16 GB.
var SpecT110 = &TypeSpec{
	Name:        "T110",
	Cores:       8,
	SpeedFactor: 0.8,
	MemoryGB:    16,
	DiskMBps:    120,
	NetMBps:     117,
	IdleWatts:   45,
	AlphaWatts:  70,
	MapSlots:    4,
	ReduceSlots: 2,
}

// SpecT320 is the PowerEdge T320: 12-core Xeon, 24 GB.
var SpecT320 = &TypeSpec{
	Name:        "T320",
	Cores:       12,
	SpeedFactor: 0.8,
	MemoryGB:    24,
	DiskMBps:    144,
	NetMBps:     117,
	IdleWatts:   60,
	AlphaWatts:  75,
	MapSlots:    6,
	ReduceSlots: 3,
}

// SpecT620 is the PowerEdge T620: 24-core Xeon, 16 GB.
var SpecT620 = &TypeSpec{
	Name:        "T620",
	Cores:       24,
	SpeedFactor: 0.85,
	MemoryGB:    16,
	DiskMBps:    144,
	NetMBps:     117,
	IdleWatts:   100,
	AlphaWatts:  110,
	MapSlots:    12,
	ReduceSlots: 6,
}

// SpecAtom is the Atom micro-server: 4 low-power cores, 8 GB. Two map
// slots: four 1.6-thread tasks would oversubscribe its 4 cores.
var SpecAtom = &TypeSpec{
	Name:        "Atom",
	Cores:       4,
	SpeedFactor: 0.35,
	MemoryGB:    8,
	DiskMBps:    100,
	NetMBps:     117,
	IdleWatts:   10,
	AlphaWatts:  12,
	MapSlots:    2,
	ReduceSlots: 1,
}

// AllSpecs lists every catalogued machine type.
func AllSpecs() []*TypeSpec {
	return []*TypeSpec{
		SpecDesktop, SpecXeonE5, SpecT420, SpecT110, SpecT320, SpecT620, SpecAtom,
	}
}

// Capability returns a copy of spec with slot counts scaled to cores (one
// slot per ~1.6-thread task). The §II motivation experiments measure raw
// machine capability — tasks submitted to the box, not to a slot-capped
// TaskTracker — so Fig. 1's open-loop studies use this variant while the
// Hadoop evaluation keeps the §V-B uniform slots.
func Capability(spec *TypeSpec) *TypeSpec {
	c := *spec
	c.MapSlots = int(float64(spec.Cores) / 1.6)
	if c.MapSlots < 1 {
		c.MapSlots = 1
	}
	c.ReduceSlots = c.MapSlots / 2
	if c.ReduceSlots < 1 {
		c.ReduceSlots = 1
	}
	return &c
}

// internSpec registers spec in the cluster's type table and returns its
// TypeID. Interning is by pointer: re-registering the same spec yields the
// same TypeID, while a distinct spec that reuses an existing name is a
// configuration error (names must identify types uniquely — ByType, probe
// samples, and the per-type pheromone trails are all keyed by name).
func (c *Cluster) internSpec(spec *TypeSpec) (TypeID, error) {
	for i, s := range c.specs {
		if s == spec {
			return TypeID(i), nil
		}
		if s.Name == spec.Name {
			return 0, fmt.Errorf("cluster: duplicate registration of type %q with a different spec", spec.Name)
		}
	}
	if len(c.specs) > int(^TypeID(0)) {
		return 0, fmt.Errorf("cluster: more than %d machine types", int(^TypeID(0))+1)
	}
	c.specs = append(c.specs, spec)
	return TypeID(len(c.specs) - 1), nil
}

// NumTypes returns the number of distinct machine types in the fleet.
func (c *Cluster) NumTypes() int { return len(c.specs) }

// TypeSpecByID returns the interned spec for id, panicking on an id that
// was never interned.
func (c *Cluster) TypeSpecByID(id TypeID) *TypeSpec {
	if int(id) >= len(c.specs) {
		panic(fmt.Sprintf("cluster: no type %d in table of %d", id, len(c.specs)))
	}
	return c.specs[id]
}

// TypeIDOf looks up the interned id for a type name; ok is false when the
// fleet has no machines of that type.
func (c *Cluster) TypeIDOf(name string) (TypeID, bool) {
	for i, s := range c.specs {
		if s.Name == name {
			return TypeID(i), true
		}
	}
	return 0, false
}

// Testbed returns the paper's §V-B slave fleet: 8 Dell desktops, 3 T110,
// 2 T420, 1 T320, 1 T620, 1 Atom (the master rides on a desktop and is
// not simulated).
func Testbed() *Cluster {
	return MustNew(
		Group{Spec: SpecDesktop, Count: 8},
		Group{Spec: SpecT110, Count: 3},
		Group{Spec: SpecT420, Count: 2},
		Group{Spec: SpecT320, Count: 1},
		Group{Spec: SpecT620, Count: 1},
		Group{Spec: SpecAtom, Count: 1},
	)
}
