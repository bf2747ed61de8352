package mapreduce

import (
	"fmt"

	"eant/internal/sim"
)

// This file is the driver's run-reset path, which NewDriver also ends in:
// Reset returns a built driver to the state every run starts from, reusing
// every long-lived allocation — the engine's calendar queue and event pool,
// the cluster and meter arrays, the HDFS namespace and its replica array,
// and the aggregate buffers; Run then carves the jobs out of the retained
// arena (arena.go). A warm run is byte-identical to a cold one because a
// cold driver is empty storage put through this same Reset: every RNG
// stream is reseeded from its label-derived seed, and the per-run state is
// assigned whole.

// Reset rewires the driver for another run with the given scheduler and
// configuration. The cluster is kept (machines reset in place), and so is
// the job arena, which the next Run carves its jobs from. The scheduler
// must itself be reset (or fresh) — the driver cannot see policy state. On
// error the driver is left partially reset and must not be run.
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
		cfg:        cfg,
		sched:      sched,
		probe:      cfg.Probe,
		slotObs:    slotObs,
		stats:      newStats(sched.Name()),
		totalSlots: d.cluster.TotalSlots(),
	}

	d.engine.Reset()
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
	d.ns.Reset(sim.ForkSeed(cfg.Seed, "hdfs"))
	d.local.Reseed(sim.ForkSeed(cfg.Seed, "locality"))
	d.ctx.Rng.Reseed(sim.ForkSeed(cfg.Seed, "sched"))

	clear(d.active)
	d.active = d.active[:0]
	n := d.cluster.Size()
	d.blacklistUntil = zeroed(d.blacklistUntil, n, d.faults.Enabled())
	d.failCount = zeroed(d.failCount, n, d.faults.Enabled())
	d.covering = zeroed(d.covering, n, cfg.Power.Enabled)
	d.lastBusy = zeroed(d.lastBusy, n, cfg.Power.Enabled)

	// ns.Reset dropped the covering subset.
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
