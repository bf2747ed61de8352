package mapreduce

import (
	"fmt"

	"eant/internal/sim"
)

// This file is the driver's run-reset path, which NewDriver also ends in:
// Reset returns a built driver to the state every run starts from, reusing
// every long-lived allocation — the engine's calendar queue and event pool,
// the cluster and meter arrays, the HDFS namespace (with retired files
// recycled by job ID), the aggregate buffers, and (via Run's warm gate) the
// Job/Task structures themselves. A warm run is byte-identical to a cold
// one because a cold driver is empty storage put through this same Reset:
// every RNG stream is reseeded from its label-derived seed, and the
// per-run state is assigned whole.

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
	slotObs, _ := sched.(SlotObserver)
	d.runState = runState{
		cfg:              cfg,
		sched:            sched,
		probe:            cfg.Probe,
		slotObs:          slotObs,
		stats:            newStats(sched.Name()),
		totalSlots:       d.cluster.TotalSlots(),
		totalMapSlots:    d.cluster.TotalMapSlots(),
		totalReduceSlots: d.cluster.TotalReduceSlots(),
	}

	// Calendar buckets sized to the dominant event period: heartbeats,
	// completions and shuffle transitions land in the O(1) ring; control
	// ticks and far-future submissions take the overflow band.
	d.engine.Reset()
	d.engine.SetBucketWidth(cfg.Heartbeat)
	d.cluster.Reset()
	d.meter.Reset()
	// Each stream is seeded with ForkSeed(seed, label), the seed
	// NewRNG(seed).Fork(label) would give it.
	if err := d.noise.Reset(cfg.Noise, sim.ForkSeed(cfg.Seed, "noise")); err != nil {
		return err
	}
	if err := d.faults.Reset(cfg.Fault, sim.ForkSeed(cfg.Seed, "fault")); err != nil {
		return err
	}
	d.ns.Reset(cfg.Replication, sim.ForkSeed(cfg.Seed, "hdfs"))
	d.local.Reseed(sim.ForkSeed(cfg.Seed, "locality"))
	d.ctx.Rng.Reseed(sim.ForkSeed(cfg.Seed, "sched"))

	clear(d.active)
	d.active = d.active[:0]
	n := d.cluster.Size()
	d.blacklistUntil = zeroed(d.blacklistUntil, n, d.faults.Enabled())
	d.failCount = zeroed(d.failCount, n, d.faults.Enabled())
	d.covering = zeroed(d.covering, n, cfg.Power.Enabled)
	d.lastBusy = zeroed(d.lastBusy, n, cfg.Power.Enabled)

	// Placement constraints were dropped by ns.Reset: exclusions first,
	// then the covering subset.
	for _, typeName := range cfg.ComputeOnlyTypes {
		for _, m := range d.cluster.ByType(typeName) {
			d.ns.ExcludeFromPlacement(m.ID())
		}
	}
	if cfg.Power.Enabled {
		var coveringIDs []int
		for _, name := range d.cluster.TypeNames() {
			machines := d.cluster.ByType(name)
			for _, m := range machines[:min(cfg.Power.CoveringPerType, len(machines))] {
				d.covering[m.ID()] = true
				coveringIDs = append(coveringIDs, m.ID())
			}
		}
		d.ns.PreferFirstReplicaOn(coveringIDs)
	}
	// Every machine starts awake and idle since time 0.
	d.sleepQ.reset(n, cfg.Power.Enabled)
	for _, m := range d.cluster.Machines() {
		d.queueSleep(m)
	}
	d.expiryQ.reset(n, d.faults.Enabled())

	d.tabulateEstimates()
	clear(d.done)
	clear(d.doneByMachine)
	d.resetAggregates()
	return nil
}

// zeroed returns nil when off; when on, it returns s cleared in place, or
// n fresh zeros if s is nil.
func zeroed[T any](s []T, n int, on bool) []T {
	switch {
	case !on:
		return nil
	case s == nil:
		return make([]T, n)
	}
	clear(s)
	return s
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

// resetForRun returns j to the state its spec starts a run in, over its
// retained storage. The literal names only the retained fields, so every
// other field, progress and timestamps included, starts at zero. Every
// Task is overwritten with its initial value (stale pendingEvent handles
// are inert — the engine reset bumped their generation), and speculative
// clones (separate allocations) are dropped with the cleared in-flight
// list. blocks is the input file's replica lists, which the job aliases;
// the reduce estimates are tabulated at submission.
func (j *Job) resetForRun(blocks [][]int) {
	clear(j.inFlight)
	clear(j.reduceEst)
	*j = Job{
		Spec:           j.Spec,
		Maps:           j.Maps,
		Reduces:        j.Reduces,
		pendingMaps:    j.pendingMaps[:0],
		pendingReduces: j.pendingReduces[:0],
		localHead:      j.localHead,
		localTail:      j.localTail,
		local:          j.local,
		mapReplicas:    blocks,
		inFlight:       j.inFlight[:0],
		reduceEst:      j.reduceEst,
	}
	for i := range j.Maps {
		j.Maps[i] = Task{
			Job:     j,
			Index:   i,
			Kind:    MapTask,
			InputMB: j.Spec.MapInputMB(i),
			State:   TaskPending,
		}
		j.pendingMaps = append(j.pendingMaps, i)
	}
	j.buildLocal(blocks)
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
