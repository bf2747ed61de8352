package mapreduce

import (
	"fmt"
	"time"

	"eant/internal/sim"
)

// This file is the driver's warm-run path: Reset returns an already-built
// driver to the state NewDriver(cluster, sched, cfg) leaves it in, reusing
// every long-lived allocation — the engine's calendar queue and event pool,
// the cluster and meter arrays, the HDFS namespace (with retired files
// recycled by job ID), the aggregate buffers, and (via Run's warm gate) the
// Job/Task structures themselves. A warm run must be byte-identical to a
// cold one: every RNG stream is rewound to the label-derived seed NewDriver
// would fork, and every piece of state either reproduces its freshly
// constructed value exactly or is re-derived by the same code path.

// Reset rewires the driver for another run with the given scheduler and
// configuration. The cluster is kept (machines reset in place); the job
// list is kept too and reused by the next Run when its specs match. The
// scheduler must itself be reset (or fresh) — the driver cannot see policy
// state. On error the driver is left partially reset and must not be run.
func (d *Driver) Reset(sched Scheduler, cfg Config) error {
	cfg.setDefaults()
	if err := cfg.Validate(); err != nil {
		return err
	}
	if sched == nil {
		return fmt.Errorf("mapreduce: nil scheduler")
	}
	d.cfg = cfg

	// ForkSeed(seed, label) is exactly the seed NewRNG(seed).Fork(label)
	// produces, and is independent of fork order, so rewinding each stream
	// reproduces NewDriver's root-fork tree without a root RNG.
	d.engine.Reset()
	d.engine.SetBucketWidth(cfg.Heartbeat)
	d.cluster.Reset()
	d.meter.Reset()
	if err := d.noise.Reset(cfg.Noise, sim.ForkSeed(cfg.Seed, "noise")); err != nil {
		return err
	}
	if err := d.faults.Reset(cfg.Fault, sim.ForkSeed(cfg.Seed, "fault")); err != nil {
		return err
	}
	d.ns.Reset(sim.ForkSeed(cfg.Seed, "hdfs"))
	d.local.Reseed(sim.ForkSeed(cfg.Seed, "locality"))
	d.ctx.Rng.Reseed(sim.ForkSeed(cfg.Seed, "sched"))

	d.sched = sched
	d.probe = cfg.Probe
	d.slotObs = nil
	if obs, ok := sched.(SlotObserver); ok {
		d.slotObs = obs
	}
	d.totalSlots = d.cluster.TotalSlots()
	d.totalMapSlots = d.cluster.TotalMapSlots()
	d.totalReduceSlots = d.cluster.TotalReduceSlots()
	d.stats = newStats(sched.Name())
	clear(d.intervalAssign)
	d.unsubmit = 0
	d.tickOffset = 0
	for i := range d.active {
		d.active[i] = nil
	}
	d.active = d.active[:0]

	if d.faults.Enabled() {
		if d.blacklistUntil == nil {
			d.blacklistUntil = make([]time.Duration, d.cluster.Size())
			d.failCount = make([]int, d.cluster.Size())
		} else {
			for i := range d.blacklistUntil {
				d.blacklistUntil[i] = 0
				d.failCount[i] = 0
			}
		}
	} else {
		d.blacklistUntil = nil
		d.failCount = nil
	}

	// Placement constraints were dropped by ns.Reset; re-derive them in
	// NewDriver's order (exclusions, then the covering subset).
	for _, typeName := range cfg.ComputeOnlyTypes {
		for _, m := range d.cluster.ByType(typeName) {
			d.ns.ExcludeFromPlacement(m.ID())
		}
	}
	if cfg.Power.Enabled {
		if d.covering == nil {
			d.covering = make([]bool, d.cluster.Size())
			d.lastBusy = make([]time.Duration, d.cluster.Size())
		} else {
			for i := range d.covering {
				d.covering[i] = false
				d.lastBusy[i] = 0
			}
		}
		var coveringIDs []int
		for _, name := range d.cluster.TypeNames() {
			machines := d.cluster.ByType(name)
			n := cfg.Power.CoveringPerType
			if n > len(machines) {
				n = len(machines)
			}
			for i := 0; i < n; i++ {
				d.covering[machines[i].ID()] = true
				coveringIDs = append(coveringIDs, machines[i].ID())
			}
		}
		d.ns.PreferFirstReplicaOn(coveringIDs)
	} else {
		d.covering = nil
		d.lastBusy = nil
	}

	d.tabulateEstimates()
	clear(d.done)
	clear(d.doneByMachine)
	d.tasksDone = 0
	d.resetAggregates()
	return nil
}

// resetAggregates seeds the aggregate state for the fully-awake fleet over
// the buffers initAggregates allocated. The type table (typeReps, typeIdx)
// is a pure function of the cluster and stays.
func (d *Driver) resetAggregates() {
	a := &d.agg
	for i := range a.class {
		a.class[i] = classAwake
	}
	a.byClass = [numClasses]classSlots{}
	a.pendingMaps = 0
	a.pendingReduces = 0
	a.readyPendingReduces = 0
	a.epoch = 0
	for i := range a.freeReduceByType {
		a.freeReduceByType[i] = 0
	}
	awake := &a.byClass[classAwake]
	for _, m := range d.cluster.Machines() {
		spec := m.Spec()
		a.freeMap[m.ID()] = spec.MapSlots
		a.freeReduce[m.ID()] = spec.ReduceSlots
		awake.mapSlots += spec.MapSlots
		awake.reduceSlots += spec.ReduceSlots
		awake.freeMap += spec.MapSlots
		awake.freeReduce += spec.ReduceSlots
		awake.mapHosts += hosts(spec.MapSlots)
		awake.reduceHosts += hosts(spec.ReduceSlots)
		a.freeReduceByType[a.typeIdx[m.ID()]] += spec.ReduceSlots
	}
}

// resetForRun rebuilds j's run state in place for a warm rerun of the same
// spec: every Task is overwritten with its newJob initial value (stale
// pendingEvent handles are inert — the engine reset bumped their
// generation), the pending FIFOs and locality index are rebuilt by
// overwrite in newJob's exact order, and speculative clones (separate
// allocations) are dropped with the cleared in-flight list. replicasOf
// supplies the re-placed block locations; the reduce estimates are
// re-tabulated at submission.
func (j *Job) resetForRun(replicasOf func(block int) []int) {
	j.Submitted, j.FirstStart, j.MapsDoneAt, j.LastShuffleEnd, j.Finished = 0, 0, 0, 0, 0
	j.mapsDone, j.reducesDone = 0, 0
	j.started, j.done, j.failed = false, false, false
	j.reduceGateOpen = false
	clear(j.inFlight)
	j.inFlight = j.inFlight[:0]
	clear(j.reduceEst)
	// Truncate each locality queue in place. failJob replaces the whole map
	// and popLocalMap nils drained entries; q[:0] of nil is nil, and the
	// append below re-allocates only those queues.
	//eant:unordered-ok each entry is truncated independently; nothing observes the key order
	for id, q := range j.localPending {
		j.localPending[id] = q[:0]
	}
	j.pendingMaps = j.pendingMaps[:0]
	j.pendingHead = 0
	for i := range j.Maps {
		j.Maps[i] = Task{
			Job:     j,
			Index:   i,
			Kind:    MapTask,
			InputMB: j.Spec.MapInputMB(i),
			State:   TaskPending,
		}
		j.pendingMaps = append(j.pendingMaps, i)
		j.mapReplicas[i] = replicasOf(i)
		for _, machineID := range j.mapReplicas[i] {
			j.localPending[machineID] = append(j.localPending[machineID], i)
		}
	}
	j.pendingReduces = j.pendingReduces[:0]
	j.reduceHead = 0
	for i := range j.Reduces {
		j.Reduces[i] = Task{
			Job:     j,
			Index:   i,
			Kind:    ReduceTask,
			InputMB: j.Spec.ShuffleMBPerReduce(),
			State:   TaskPending,
		}
		j.pendingReduces = append(j.pendingReduces, i)
	}
}
