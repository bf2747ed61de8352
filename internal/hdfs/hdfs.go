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
	"slices"

	"eant/internal/cluster"
	"eant/internal/sim"
)

// DefaultReplication is HDFS's default replica count.
const DefaultReplication = 3

// Namespace places and resolves input files. Every placed block's replica
// IDs sit in one retained array, Stride() entries per block and the files
// one after another in placement order, so placing allocates nothing once
// the array has room. Not safe for concurrent use; the simulation loop is
// single-threaded.
type Namespace struct {
	cluster     *cluster.Cluster
	replication int
	// replicas holds the placed blocks' replica IDs; files locates each
	// job's blocks in it.
	replicas []int32
	files    map[int]span
	// blocksHeld counts replicas per machine, used to balance placement.
	blocksHeld []int
	// excluded marks compute-only machines that never receive replicas;
	// nExcluded counts them.
	excluded  []bool
	nExcluded int
	// covering, when set, constrains each block's first replica to these
	// machines (the consolidation covering subset).
	covering []int
	rng      sim.RNG
}

// span locates one file in Namespace.replicas: its first entry and its
// block count.
type span struct{ first, blocks int }

// NewNamespace returns an empty namespace over c whose placements draw
// from a stream seeded with seed. replication is defaulted and clamped as
// Reset does.
func NewNamespace(c *cluster.Cluster, replication int, seed int64) *Namespace {
	ns := &Namespace{
		cluster:    c,
		files:      make(map[int]span),
		blocksHeld: make([]int, c.Size()),
		excluded:   make([]bool, c.Size()),
	}
	ns.Reset(replication, seed)
	return ns
}

// Replication returns the effective replica count.
func (ns *Namespace) Replication() int { return ns.replication }

// Stride returns how many replicas each block gets: the replica count,
// clamped to the machines not excluded from placement.
func (ns *Namespace) Stride() int {
	return min(ns.replication, ns.cluster.Size()-ns.nExcluded)
}

// Reset empties the namespace, adopts the replica count (DefaultReplication
// when non-positive, clamped to the cluster size) and rewinds its RNG
// stream to the given seed, so a subsequent identical Place sequence
// reproduces the original placements bit for bit. The replica array keeps
// its storage for the next placements; exclusions and the covering
// constraint are dropped (the driver re-applies them before placing).
func (ns *Namespace) Reset(replication int, seed int64) {
	if replication <= 0 {
		replication = DefaultReplication
	}
	ns.replication = min(replication, ns.cluster.Size())
	ns.replicas = ns.replicas[:0]
	clear(ns.files)
	clear(ns.blocksHeld)
	clear(ns.excluded)
	ns.nExcluded = 0
	ns.covering = ns.covering[:0]
	ns.rng.Reseed(seed)
}

// PreferFirstReplicaOn constrains every future block's *first* replica to
// the given machine set — the "covering subset" of Leverich & Kozyrakis
// that keeps one copy of all data on always-on machines so the rest of
// the fleet may power down without losing availability. Remaining
// replicas place anywhere. Call before Place.
func (ns *Namespace) PreferFirstReplicaOn(machineIDs []int) {
	ns.covering = ns.covering[:0]
	for _, id := range machineIDs {
		if id < 0 || id >= ns.cluster.Size() {
			panic(fmt.Sprintf("hdfs: covering machine %d in fleet of %d", id, ns.cluster.Size()))
		}
		ns.covering = append(ns.covering, id)
	}
}

// ExcludeFromPlacement marks a machine as compute-only (no DataNode):
// placements never put replicas there. Exclusions change the stride, so
// they must all come before the first Place after a Reset; a later one
// panics. Excluding every machine panics at the next Place.
func (ns *Namespace) ExcludeFromPlacement(machineID int) {
	if machineID < 0 || machineID >= ns.cluster.Size() {
		panic(fmt.Sprintf("hdfs: exclude of machine %d in fleet of %d", machineID, ns.cluster.Size()))
	}
	if len(ns.files) > 0 {
		panic(fmt.Sprintf("hdfs: exclude of machine %d after placement", machineID))
	}
	if !ns.excluded[machineID] {
		ns.excluded[machineID] = true
		ns.nExcluded++
	}
}

// Place creates the input file for a job with the given block count,
// choosing replica sets that are distinct per block and globally balanced.
// Placing a job twice is a driver bug and returns an error.
func (ns *Namespace) Place(jobID, blocks int) error {
	if _, ok := ns.files[jobID]; ok {
		return fmt.Errorf("hdfs: job %d already placed", jobID)
	}
	if blocks <= 0 {
		return fmt.Errorf("hdfs: job %d has %d blocks", jobID, blocks)
	}
	s := ns.Stride()
	if s <= 0 {
		panic("hdfs: every machine excluded from placement")
	}
	first := len(ns.replicas)
	ns.replicas = slices.Grow(ns.replicas, blocks*s)[:first+blocks*s]
	for e := first; e < len(ns.replicas); e += s {
		ns.pickReplicas(ns.replicas[e : e+s])
	}
	ns.files[jobID] = span{first, blocks}
	return nil
}

// pickReplicas fills dst with distinct placeable machines, preferring
// machines holding fewer replicas (power-of-two-choices balancing with
// random tie-breaking). Membership tests scan the (≤ replication-long)
// part already chosen — same draws, no per-block map.
func (ns *Namespace) pickReplicas(dst []int32) {
	n := ns.cluster.Size()
	chosen := dst[:0]
	inChosen := func(id int) bool {
		for _, c := range chosen {
			if int(c) == id {
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
			chosen = append(chosen, int32(pick))
		}
	}
	for len(chosen) < len(dst) {
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
		chosen = append(chosen, int32(pick))
	}
}

// File returns jobID's placed input, Stride() replica IDs per block in
// block order, or nil if the job is not placed. The slice is a window of
// the namespace's array: it is valid until the next Place or Reset, and
// callers must not modify it.
func (ns *Namespace) File(jobID int) []int32 {
	f, ok := ns.files[jobID]
	if !ok {
		return nil
	}
	end := f.first + f.blocks*ns.Stride()
	return ns.replicas[f.first:end:end]
}

// Replicas returns the machine IDs holding block b of jobID's input.
func (ns *Namespace) Replicas(jobID, block int) []int32 {
	f, ok := ns.files[jobID]
	if !ok {
		panic(fmt.Sprintf("hdfs: job %d not placed", jobID))
	}
	if block < 0 || block >= f.blocks {
		panic(fmt.Sprintf("hdfs: job %d has no block %d", jobID, block))
	}
	s := ns.Stride()
	e := f.first + block*s
	return ns.replicas[e : e+s : e+s]
}

// IsLocal reports whether machineID holds a replica of block b of jobID.
func (ns *Namespace) IsLocal(jobID, block, machineID int) bool {
	for _, id := range ns.Replicas(jobID, block) {
		if int(id) == machineID {
			return true
		}
	}
	return false
}

// Remove drops a job's file (job retired), releasing its placement load.
// Its replica entries stay in the array until the next Reset.
func (ns *Namespace) Remove(jobID int) {
	reps := ns.File(jobID)
	if reps == nil {
		return
	}
	for _, id := range reps {
		ns.blocksHeld[id]--
	}
	delete(ns.files, jobID)
}

// BlocksHeld returns how many replicas machine id currently holds.
func (ns *Namespace) BlocksHeld(id int) int { return ns.blocksHeld[id] }
