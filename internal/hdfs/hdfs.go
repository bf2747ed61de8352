// Package hdfs models the pieces of the Hadoop Distributed File System
// that task assignment depends on: block-granular input files with
// replicated placement across the fleet. The data-locality term of E-Ant's
// heuristic function (Eq. 7, "η = ∞ if task has local data") needs real
// block→machine maps to be meaningful, so every job's input is placed here
// before its map tasks become schedulable.
//
// Placement follows HDFS defaults for off-cluster writers: each block's
// replicas land on distinct, randomly chosen machines, balanced so no
// machine holds a disproportionate share.
package hdfs

import (
	"fmt"

	"eant/internal/cluster"
	"eant/internal/sim"
)

// DefaultReplication is HDFS's default replica count.
const DefaultReplication = 3

// File is one job's input: Blocks[i] lists the machine IDs holding a
// replica of block i. Every block's list is a window of one backing array
// (replication entries per block), so placing a file allocates two arrays
// however many blocks it has.
type File struct {
	JobID  int
	Blocks [][]int
}

// Namespace places and resolves input files. Not safe for concurrent use;
// the simulation loop is single-threaded.
type Namespace struct {
	cluster     *cluster.Cluster
	replication int
	files       map[int]*File
	// blocksHeld counts replicas per machine, used to balance placement.
	blocksHeld []int
	// excluded marks compute-only machines that never receive replicas.
	excluded map[int]bool
	// covering, when set, constrains each block's first replica to these
	// machines (the consolidation covering subset).
	covering []int
	rng      sim.RNG
	// recycled holds Files retired by Reset, keyed by job ID, so a warm
	// rerun of the same workload re-places into the same backing arrays.
	recycled map[int]*File
}

// NewNamespace returns an empty namespace over c whose placements draw
// from a stream seeded with seed. replication is defaulted and clamped as
// Reset does.
func NewNamespace(c *cluster.Cluster, replication int, seed int64) *Namespace {
	ns := &Namespace{
		cluster:    c,
		files:      make(map[int]*File),
		blocksHeld: make([]int, c.Size()),
		recycled:   make(map[int]*File),
	}
	ns.Reset(replication, seed)
	return ns
}

// Replication returns the effective replica count.
func (ns *Namespace) Replication() int { return ns.replication }

// Reset empties the namespace, adopts the replica count (DefaultReplication
// when non-positive, clamped to the cluster size) and rewinds its RNG
// stream to the given seed, so a subsequent identical Place sequence
// reproduces the original placements bit for bit. Retired Files move to a
// recycling pool keyed by job ID; exclusions and the covering constraint
// are dropped (the driver re-applies them before placing).
func (ns *Namespace) Reset(replication int, seed int64) {
	if replication <= 0 {
		replication = DefaultReplication
	}
	ns.replication = min(replication, ns.cluster.Size())
	for id, f := range ns.files {
		ns.recycled[id] = f
	}
	clear(ns.files)
	clear(ns.blocksHeld)
	ns.excluded = nil
	ns.covering = nil
	ns.rng.Reseed(seed)
}

// PreferFirstReplicaOn constrains every future block's *first* replica to
// the given machine set — the "covering subset" of Leverich & Kozyrakis
// that keeps one copy of all data on always-on machines so the rest of
// the fleet may power down without losing availability. Remaining
// replicas place anywhere. Call before Place.
func (ns *Namespace) PreferFirstReplicaOn(machineIDs []int) {
	ns.covering = nil
	for _, id := range machineIDs {
		if id < 0 || id >= ns.cluster.Size() {
			panic(fmt.Sprintf("hdfs: covering machine %d in fleet of %d", id, ns.cluster.Size()))
		}
		ns.covering = append(ns.covering, id)
	}
}

// ExcludeFromPlacement marks a machine as compute-only (no DataNode):
// future placements never put replicas there. Must be called before any
// Place whose blocks should honor it. Excluding every machine panics at
// the next Place.
func (ns *Namespace) ExcludeFromPlacement(machineID int) {
	if machineID < 0 || machineID >= ns.cluster.Size() {
		panic(fmt.Sprintf("hdfs: exclude of machine %d in fleet of %d", machineID, ns.cluster.Size()))
	}
	if ns.excluded == nil {
		ns.excluded = make(map[int]bool)
	}
	ns.excluded[machineID] = true
}

// Place creates the input file for a job with the given block count,
// choosing replica sets that are distinct per block and globally balanced.
// Placing a job twice is a driver bug and returns an error.
func (ns *Namespace) Place(jobID, blocks int) (*File, error) {
	if _, ok := ns.files[jobID]; ok {
		return nil, fmt.Errorf("hdfs: job %d already placed", jobID)
	}
	if blocks <= 0 {
		return nil, fmt.Errorf("hdfs: job %d has %d blocks", jobID, blocks)
	}
	f := ns.recycled[jobID]
	if f != nil && len(f.Blocks) == blocks {
		delete(ns.recycled, jobID)
	} else {
		f = &File{JobID: jobID, Blocks: make([][]int, blocks)}
		reps := ns.replication
		backing := make([]int, blocks*reps)
		for b := range f.Blocks {
			f.Blocks[b] = backing[b*reps : b*reps : (b+1)*reps]
		}
	}
	for b := 0; b < blocks; b++ {
		f.Blocks[b] = ns.pickReplicas(f.Blocks[b][:0])
	}
	ns.files[jobID] = f
	return f, nil
}

// pickReplicas selects replication distinct placeable machines, preferring
// machines holding fewer replicas (power-of-two-choices balancing with
// random tie-breaking). The result is built in dst's backing array, which
// has capacity for replication entries. Membership tests scan the
// (≤ replication-long) result directly — same draws, no per-block map.
func (ns *Namespace) pickReplicas(dst []int) []int {
	n := ns.cluster.Size()
	placeable := n - len(ns.excluded)
	if placeable <= 0 {
		panic("hdfs: every machine excluded from placement")
	}
	reps := ns.replication
	if reps > placeable {
		reps = placeable
	}
	chosen := dst[:0]
	inChosen := func(id int) bool {
		for _, c := range chosen {
			if c == id {
				return true
			}
		}
		return false
	}
	usable := func(id int) bool { return !inChosen(id) && !ns.excluded[id] }
	if len(ns.covering) > 0 {
		// First replica on the least-loaded covering machine (random
		// tie-break via a two-candidate draw).
		a := ns.covering[ns.rng.Intn(len(ns.covering))]
		b := ns.covering[ns.rng.Intn(len(ns.covering))]
		pick := a
		if usable(b) && (!usable(a) || ns.blocksHeld[b] < ns.blocksHeld[a]) {
			pick = b
		}
		if usable(pick) {
			ns.blocksHeld[pick]++
			chosen = append(chosen, pick)
		}
	}
	for len(chosen) < reps {
		// Two random candidates; keep the less-loaded usable one.
		a := ns.rng.Intn(n)
		b := ns.rng.Intn(n)
		pick := -1
		switch {
		case usable(a) && usable(b):
			pick = a
			if ns.blocksHeld[b] < ns.blocksHeld[a] {
				pick = b
			}
		case usable(a):
			pick = a
		case usable(b):
			pick = b
		}
		if pick < 0 {
			// Linear fallback: scan for the least-loaded usable machine.
			for id := 0; id < n; id++ {
				if !usable(id) {
					continue
				}
				if pick < 0 || ns.blocksHeld[id] < ns.blocksHeld[pick] {
					pick = id
				}
			}
		}
		ns.blocksHeld[pick]++
		chosen = append(chosen, pick)
	}
	return chosen
}

// File returns the placed file for jobID, or nil.
func (ns *Namespace) File(jobID int) *File { return ns.files[jobID] }

// Replicas returns the machine IDs holding block b of jobID's input.
func (ns *Namespace) Replicas(jobID, block int) []int {
	f := ns.files[jobID]
	if f == nil {
		panic(fmt.Sprintf("hdfs: job %d not placed", jobID))
	}
	if block < 0 || block >= len(f.Blocks) {
		panic(fmt.Sprintf("hdfs: job %d has no block %d", jobID, block))
	}
	return f.Blocks[block]
}

// IsLocal reports whether machineID holds a replica of block b of jobID.
func (ns *Namespace) IsLocal(jobID, block, machineID int) bool {
	for _, id := range ns.Replicas(jobID, block) {
		if id == machineID {
			return true
		}
	}
	return false
}

// Remove drops a job's file (job retired), releasing its placement load.
func (ns *Namespace) Remove(jobID int) {
	f := ns.files[jobID]
	if f == nil {
		return
	}
	for _, reps := range f.Blocks {
		for _, id := range reps {
			ns.blocksHeld[id]--
		}
	}
	delete(ns.files, jobID)
}

// BlocksHeld returns how many replicas machine id currently holds.
func (ns *Namespace) BlocksHeld(id int) int { return ns.blocksHeld[id] }
