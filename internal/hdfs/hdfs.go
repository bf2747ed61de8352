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
	"eant/internal/workload"
)

// Replication is the replica count: HDFS's default, which every run uses.
const Replication = 3

// Namespace places and resolves input files. Every placed block's replica
// IDs sit in one retained array, Stride() entries per block and the files
// one after another in placement order, so placing allocates nothing once
// the array has room. Not safe for concurrent use; the simulation loop is
// single-threaded.
type Namespace struct {
	cluster *cluster.Cluster
	// replicas holds the placed blocks' replica IDs; files locates each
	// job's blocks in it.
	replicas []int32
	files    map[int]span
	// blocksHeld counts replicas per machine, used to balance placement.
	blocksHeld []int
	// covering, when set, constrains each block's first replica to these
	// machines (the consolidation covering subset).
	covering []int
	seed     int64 // the stream seed Reset adopted
	rng      sim.RNG
	// last records the last successful Place, which Reset keeps; reused
	// is whether the last Place restored it instead of drawing.
	last   placement
	reused bool
}

// span locates one file in Namespace.replicas: its first entry and its
// block count.
type span struct{ first, blocks int }

// file is one placed job's input.
type file struct {
	job int
	span
}

// placement records a successful Place: the inputs its draws are a pure
// function of (the stream seed, the covering set and the mix's job IDs and
// block counts, the latter in files), and what it produced beyond the
// replica array (the file spans and the balance counts). valid is false
// until a Place succeeds, and from the start of a Place that draws.
type placement struct {
	valid      bool
	seed       int64
	covering   []int
	files      []file
	blocksHeld []int
}

// NewNamespace returns an empty namespace over c whose placements draw
// from a stream seeded with seed.
func NewNamespace(c *cluster.Cluster, seed int64) *Namespace {
	ns := &Namespace{
		cluster:    c,
		files:      make(map[int]span),
		blocksHeld: make([]int, c.Size()),
	}
	ns.Reset(seed)
	return ns
}

// Stride returns how many replicas each block gets: Replication, clamped
// to the fleet size.
func (ns *Namespace) Stride() int { return min(Replication, ns.cluster.Size()) }

// Reset empties the namespace and rewinds its RNG stream to the given
// seed, so a subsequent identical Place reproduces the original placement
// bit for bit. The replica array and the record of the last placement are
// kept for the next Place; the covering constraint is dropped (the driver
// re-applies it before placing).
func (ns *Namespace) Reset(seed int64) {
	clear(ns.files)
	clear(ns.blocksHeld)
	ns.covering = ns.covering[:0]
	ns.seed = seed
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

// Place creates the input files of a run's whole mix, one per job in
// submission order, each of the job's NumMaps blocks, choosing replica
// sets that are distinct per block and globally balanced. It places into
// an empty namespace, so a second Place needs a Reset first. A job ID
// that appears twice, or a job without blocks, is a driver bug and
// returns an error; the jobs before it stay placed.
//
// A placement is a pure function of its inputs: the stream seed, the
// covering set and the mix's job IDs and block counts. When they all
// equal those of the last successful Place, Place restores that placement
// (its replica array is still in place) instead of drawing it again:
// O(jobs + machines), and no draw from the stream, which nothing else
// reads.
func (ns *Namespace) Place(mix []workload.JobSpec) error {
	if len(ns.files) > 0 {
		return fmt.Errorf("hdfs: namespace already holds a placement")
	}
	if ns.reused = ns.repeats(mix); ns.reused {
		for _, f := range ns.last.files {
			ns.files[f.job] = f.span
		}
		copy(ns.blocksHeld, ns.last.blocksHeld)
		return nil
	}
	ns.last.valid = false
	s := ns.Stride()
	ns.replicas = ns.replicas[:0]
	for _, spec := range mix {
		if _, ok := ns.files[spec.ID]; ok {
			return fmt.Errorf("hdfs: job %d already placed", spec.ID)
		}
		if spec.NumMaps <= 0 {
			return fmt.Errorf("hdfs: job %d has %d blocks", spec.ID, spec.NumMaps)
		}
		first := len(ns.replicas)
		ns.replicas = slices.Grow(ns.replicas, spec.NumMaps*s)[:first+spec.NumMaps*s]
		for e := first; e < len(ns.replicas); e += s {
			ns.pickReplicas(ns.replicas[e : e+s])
		}
		ns.files[spec.ID] = span{first, spec.NumMaps}
	}
	ns.record(mix)
	return nil
}

// Reused reports whether the last Place restored the previous placement
// instead of drawing.
func (ns *Namespace) Reused() bool { return ns.reused }

// repeats reports whether mix and the namespace's current inputs equal
// those of the last successful Place.
func (ns *Namespace) repeats(mix []workload.JobSpec) bool {
	l := &ns.last
	if !l.valid || l.seed != ns.seed || len(l.files) != len(mix) || !slices.Equal(l.covering, ns.covering) {
		return false
	}
	for i, f := range l.files {
		if f.job != mix[i].ID || f.blocks != mix[i].NumMaps {
			return false
		}
	}
	return true
}

// record makes the placement of mix just drawn the last one, copying its
// inputs and results into the record's retained storage.
func (ns *Namespace) record(mix []workload.JobSpec) {
	l := &ns.last
	l.valid = true
	l.seed = ns.seed
	l.covering = append(l.covering[:0], ns.covering...)
	l.files = l.files[:0]
	for _, spec := range mix {
		l.files = append(l.files, file{spec.ID, ns.files[spec.ID]})
	}
	l.blocksHeld = append(l.blocksHeld[:0], ns.blocksHeld...)
}

// pickReplicas fills dst with distinct machines, preferring machines
// holding fewer replicas (power-of-two-choices balancing with random
// tie-breaking). Membership tests scan the (≤ Replication-long) part
// already chosen — same draws, no per-block map.
func (ns *Namespace) pickReplicas(dst []int32) {
	n := ns.cluster.Size()
	chosen := dst[:0]
	usable := func(id int) bool { return !slices.Contains(chosen, int32(id)) }
	if len(ns.covering) > 0 {
		// First replica on the least-loaded covering machine (random
		// tie-break via a two-candidate draw).
		a := ns.covering[ns.rng.Intn(len(ns.covering))]
		b := ns.covering[ns.rng.Intn(len(ns.covering))]
		pick := a
		if ns.blocksHeld[b] < ns.blocksHeld[a] {
			pick = b
		}
		ns.blocksHeld[pick]++
		chosen = append(chosen, int32(pick))
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
// the namespace's array: it is valid until the next Reset, and callers
// must not modify it.
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

// BlocksHeld returns how many replicas machine id currently holds.
func (ns *Namespace) BlocksHeld(id int) int { return ns.blocksHeld[id] }
