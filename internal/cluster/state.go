package cluster

import (
	"fmt"
	"math"
	"sort"
)

// Cluster is an ordered fleet of machines with a type index. Per-machine
// mutable state is stored column-wise (struct of arrays) and addressed
// through Machine handles: the offer path walks dense slices instead of
// chasing per-machine heap pointers, Clone is a handful of column copies,
// and Reset is a memclr of the mutable columns.
//
// Invariants (DESIGN.md §17):
//
//   - Columns are parallel: every column has length Size(), indexed by
//     MachineID, and machine i's state lives at index i in each.
//   - specs is the interned type table; typeOf[i] indexes into it. A spec
//     pointer registered twice interns to the same TypeID; two different
//     specs sharing a Name are rejected at construction.
//   - The fleet is fixed after New: columns never grow, so the backing
//     arrays never relocate while handles are live.
type Cluster struct {
	// Interned type table and the per-machine index into it. Fixed at
	// construction; spec pointers are shared across clones (immutable).
	specs  []*TypeSpec //eant:reset-keep interned type table is immutable configuration
	typeOf []TypeID    //eant:reset-keep machine→type mapping is fixed at construction

	// Derived immutable columns, denormalized from the type table so the
	// offer path (FreeMapSlots and friends) never chases a spec pointer.
	specOf      []*TypeSpec //eant:reset-keep denormalized typeOf→specs view, immutable
	mapSlots    []int16     //eant:reset-keep per-machine spec.MapSlots, immutable
	reduceSlots []int16     //eant:reset-keep per-machine spec.ReduceSlots, immutable

	// Mutable state columns, zeroed by Reset.
	runningMap    []int16
	runningReduce []int16
	util          []float64
	flags         []uint8
	sleepWatts    []float64

	// handles caches one Machine value per ID so Machines() returns a
	// stable slice without per-call allocation.
	handles []Machine            //eant:reset-keep handle cache over the fixed fleet
	byType  map[string][]Machine //eant:reset-keep index over the fixed fleet; Reset clears the columns it points at
}

// Group pairs a machine spec with a replica count.
type Group struct {
	Spec  *TypeSpec
	Count int
}

// MaxMachines bounds the fleet size: MachineID is an int32, and probe
// events carry machine IDs as int32.
const MaxMachines = math.MaxInt32

// New builds a cluster from counts of each spec, assigning stable IDs in
// the order given. It returns an error if any spec is invalid, any count is
// non-positive, the counts sum past MaxMachines, or two distinct specs
// share a name (the interned type table requires names to identify types
// uniquely). Every check runs before the fleet-sized columns are
// allocated.
func New(groups ...Group) (*Cluster, error) {
	c := &Cluster{byType: make(map[string][]Machine)}
	tids := make([]TypeID, len(groups))
	total := 0
	for i, g := range groups {
		if err := g.Spec.Validate(); err != nil {
			return nil, err
		}
		if g.Count <= 0 {
			return nil, fmt.Errorf("cluster: group %q has count %d", g.Spec.Name, g.Count)
		}
		// Checked before adding, so the sum can neither overflow nor pass
		// the bound.
		if g.Count > MaxMachines-total {
			return nil, fmt.Errorf("cluster: fleet exceeds %d machines at group %q (count %d)", MaxMachines, g.Spec.Name, g.Count)
		}
		total += g.Count
		tid, err := c.internSpec(g.Spec)
		if err != nil {
			return nil, err
		}
		tids[i] = tid
	}
	if total == 0 {
		return nil, fmt.Errorf("cluster: no machines")
	}
	c.typeOf = make([]TypeID, 0, total)
	for i, g := range groups {
		for range g.Count {
			c.typeOf = append(c.typeOf, tids[i])
		}
	}
	c.grow()
	return c, nil
}

// MustNew is New for static configurations known to be valid.
func MustNew(groups ...Group) *Cluster {
	c, err := New(groups...)
	if err != nil {
		panic(err)
	}
	return c
}

// grow allocates the state columns and handle/type indexes for the fleet
// described by typeOf. Called once per construction (New or Clone); the
// columns never relocate afterwards.
func (c *Cluster) grow() {
	n := len(c.typeOf)
	c.runningMap = make([]int16, n)
	c.runningReduce = make([]int16, n)
	c.util = make([]float64, n)
	c.flags = make([]uint8, n)
	c.sleepWatts = make([]float64, n)
	c.specOf = make([]*TypeSpec, n)
	c.mapSlots = make([]int16, n)
	c.reduceSlots = make([]int16, n)
	c.handles = make([]Machine, n)
	for i := range c.handles {
		m := Machine{c: c, id: MachineID(i)}
		c.handles[i] = m
		spec := c.specs[c.typeOf[i]]
		c.specOf[i] = spec
		c.mapSlots[i] = int16(spec.MapSlots)
		c.reduceSlots[i] = int16(spec.ReduceSlots)
		c.byType[spec.Name] = append(c.byType[spec.Name], m)
	}
}

// Clone returns an independent cluster with the same machine IDs and
// specs and zeroed transient state (running tasks, sleep, crash flags).
// A Cluster must not be shared by concurrent simulation runs — clone it
// per run instead. TypeSpec pointers are shared: specs are immutable.
func (c *Cluster) Clone() *Cluster {
	out := &Cluster{
		specs:  append([]*TypeSpec(nil), c.specs...),
		typeOf: append([]TypeID(nil), c.typeOf...),
		byType: make(map[string][]Machine, len(c.byType)),
	}
	out.grow()
	return out
}

// Reset zeroes every machine's transient state (slot occupancy,
// utilization, sleep, crash flags), returning the fleet to the condition a
// fresh Clone starts in. Warm-run reuse calls it between runs instead of
// re-cloning.
func (c *Cluster) Reset() {
	clear(c.runningMap)
	clear(c.runningReduce)
	clear(c.util)
	clear(c.flags)
	clear(c.sleepWatts)
}

// Machines returns the fleet in ID order. The slice is shared; callers must
// not mutate it.
func (c *Cluster) Machines() []Machine { return c.handles }

// Size returns the number of machines.
func (c *Cluster) Size() int { return len(c.handles) }

// Machine returns the handle for the machine with the given ID.
func (c *Cluster) Machine(id int) Machine {
	if id < 0 || id >= len(c.handles) {
		panic(fmt.Sprintf("cluster: no machine %d in fleet of %d", id, len(c.handles)))
	}
	return c.handles[id]
}

// ByType returns the machines of one hardware type (the paper's
// "homogeneous sub-cluster" used by the machine-level exchange strategy).
func (c *Cluster) ByType(name string) []Machine { return c.byType[name] }

// TypeNames returns the distinct machine type names, sorted.
func (c *Cluster) TypeNames() []string {
	names := make([]string, 0, len(c.byType))
	for n := range c.byType {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TotalSlots returns Σ m_slot over the fleet (S_pool in Eq. 7 for a
// single-user system).
func (c *Cluster) TotalSlots() int {
	total := 0
	for _, t := range c.typeOf {
		total += c.specs[t].Slots()
	}
	return total
}

// TotalMapSlots returns the fleet-wide map slot count.
func (c *Cluster) TotalMapSlots() int {
	total := 0
	for _, t := range c.typeOf {
		total += c.specs[t].MapSlots
	}
	return total
}

// TotalReduceSlots returns the fleet-wide reduce slot count.
func (c *Cluster) TotalReduceSlots() int {
	total := 0
	for _, t := range c.typeOf {
		total += c.specs[t].ReduceSlots
	}
	return total
}
