package mapreduce

import (
	"fmt"
	"math"
	"slices"
	"time"

	"eant/internal/cluster"
	"eant/internal/fault"
	"eant/internal/hdfs"
	"eant/internal/noise"
	"eant/internal/power"
	"eant/internal/probe"
	"eant/internal/sim"
	"eant/internal/workload"
)

// Config parameterizes a simulated cluster run.
type Config struct {
	// Heartbeat is the TaskTracker reporting period and the granularity
	// Δt of the Eq. 2 energy estimator. Hadoop's default is 3 s (§IV-B).
	Heartbeat time.Duration
	// ControlInterval is E-Ant's policy-refresh period (§V-B: 5 min).
	ControlInterval time.Duration
	// Slowstart is the completed-map fraction after which a job's reduces
	// become schedulable. 1.0 (default) waits for the full map barrier.
	Slowstart float64
	// Noise configures system-noise injection.
	Noise noise.Config
	// Replication is the HDFS replica count (default 3).
	Replication int
	// Seed drives every random stream in the run.
	Seed int64
	// KeepTaskRecords retains a TaskRecord per completed task.
	KeepTaskRecords bool
	// ForcedLocalFraction, when in [0, 1], overrides HDFS lookups: each
	// map task is local with this probability. Used by the Fig. 6
	// data-locality study. Negative (default) uses real placement.
	ForcedLocalFraction float64
	// NetShareDivisor models NIC and switch sharing: a task's transfer
	// bandwidth is NetMBps/NetShareDivisor. The default 16 reflects a
	// busy GbE fabric where remote map reads roughly double a task's
	// service time — the regime behind the paper's Fig. 6 (10 % → 80 %
	// locality nearly halves completion time).
	NetShareDivisor float64
	// ComputeOnlyTypes lists machine types that run no DataNode: HDFS
	// never places replicas there, so all their map input is remote.
	ComputeOnlyTypes []string
	// Power enables server consolidation (the paper's §VIII future
	// work): idle machines outside the covering subset power down.
	Power PowerMgmt
	// Fault configures machine-crash and task-failure injection. The zero
	// value is a strict no-op: nothing is scheduled and no random draws
	// are made, so disabled runs are byte-identical to pre-fault builds.
	Fault fault.Config
	// Probe, when non-nil, receives live observability events (offers,
	// draws, assignments, completions, control ticks, machine samples).
	// The probe is a pure observer: it draws no randomness, schedules no
	// events and never syncs the power meter, so instrumented runs produce
	// bit-identical Stats to uninstrumented ones (golden-enforced). Nil
	// disables all instrumentation at zero cost.
	Probe *probe.Probe
}

// PowerMgmt configures server consolidation, modeled after the covering-
// subset scheme of Leverich & Kozyrakis (the paper's [13]): a subset of
// machines holding one replica of every block stays always on; any other
// machine that sits fully idle for IdleTimeout powers down to SleepWatts
// and wakes — paying WakeLatency before its next task starts — when the
// scheduler assigns to it again.
type PowerMgmt struct {
	// Enabled turns consolidation on.
	Enabled bool
	// IdleTimeout is how long a machine must be fully idle before it
	// sleeps. Default 30 s.
	IdleTimeout time.Duration
	// WakeLatency delays the first task after a wake (resume from
	// suspend). Default 10 s.
	WakeLatency time.Duration
	// SleepWatts is the standby draw. Default 3 W.
	SleepWatts float64
	// CoveringPerType is how many machines of each hardware type stay
	// always on and hold the covering replicas. Default 1.
	CoveringPerType int
}

func (p *PowerMgmt) setDefaults() {
	if p.IdleTimeout <= 0 {
		p.IdleTimeout = 30 * time.Second
	}
	if p.WakeLatency <= 0 {
		p.WakeLatency = 10 * time.Second
	}
	if p.SleepWatts <= 0 {
		p.SleepWatts = 3
	}
	if p.CoveringPerType <= 0 {
		p.CoveringPerType = 1
	}
}

// The heartbeat and control-interval defaults, taken by a zero (or
// negative) Config field.
const (
	defaultHeartbeat       = 3 * time.Second
	defaultControlInterval = 5 * time.Minute
)

// DefaultConfig returns the paper's setup: 3 s heartbeats, 5 min control
// interval, full map barrier, replication 3, no noise.
func DefaultConfig() Config {
	return Config{
		Heartbeat:           defaultHeartbeat,
		ControlInterval:     defaultControlInterval,
		Slowstart:           1.0,
		Replication:         hdfs.DefaultReplication,
		ForcedLocalFraction: -1,
		NetShareDivisor:     16,
	}
}

func (c *Config) setDefaults() {
	if c.Heartbeat <= 0 {
		c.Heartbeat = defaultHeartbeat
	}
	if c.ControlInterval <= 0 {
		c.ControlInterval = defaultControlInterval
	}
	if c.Slowstart <= 0 {
		c.Slowstart = 1.0
	}
	if c.Replication <= 0 {
		c.Replication = hdfs.DefaultReplication
	}
	if c.NetShareDivisor <= 0 {
		c.NetShareDivisor = 16
	}
	if c.Power.Enabled {
		c.Power.setDefaults()
	}
	if c.Fault.Enabled() {
		c.Fault.SetDefaults()
	}
}

// Validate reports the first problem with the configuration.
func (c Config) Validate() error {
	for _, x := range [...]float64{c.Slowstart, c.ForcedLocalFraction, c.NetShareDivisor, c.Power.SleepWatts} {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("mapreduce: non-finite parameter %v", x)
		}
	}
	if c.Slowstart > 1 {
		return fmt.Errorf("mapreduce: slowstart %v > 1", c.Slowstart)
	}
	if c.ForcedLocalFraction > 1 {
		return fmt.Errorf("mapreduce: forced local fraction %v > 1", c.ForcedLocalFraction)
	}
	// The policy is refreshed once per control interval and serves the
	// heartbeats inside it, so an interval shorter than a heartbeat serves
	// none (and floods the engine with control ticks).
	heartbeat, interval := c.Heartbeat, c.ControlInterval
	if heartbeat <= 0 {
		heartbeat = defaultHeartbeat
	}
	if interval <= 0 {
		interval = defaultControlInterval
	}
	if interval < heartbeat {
		return fmt.Errorf("mapreduce: control interval %v shorter than heartbeat %v", interval, heartbeat)
	}
	if err := c.Fault.Validate(); err != nil {
		return err
	}
	return c.Noise.Validate()
}

// Driver is the simulated JobTracker: it owns the event loop, submits
// jobs, serves TaskTracker heartbeats through the plugged Scheduler, runs
// tasks to completion, and accounts energy.
type Driver struct {
	runState

	// The retained storage below is built once by NewDriver; Reset clears
	// or re-derives every entry, so a new driver is empty storage reset
	// once.
	engine  *sim.Engine
	cluster *cluster.Cluster
	ns      *hdfs.Namespace
	meter   *power.Meter
	noise   noise.Model
	faults  fault.Injector
	local   sim.RNG // locality-forcing stream
	ctx     *Context

	// arena holds every job of a run; active lists the submitted,
	// unfinished ones.
	arena  arena
	active []*Job

	// covering marks always-on machines; lastBusy is when each machine
	// last ran a task (consolidation policy state); sleepQ queues the
	// sleep candidates by lastBusy for the counted idle sweep. All three
	// are empty unless consolidation is on.
	covering []bool
	lastBusy []time.Duration
	sleepQ   machineQueue

	// blacklistUntil and failCount implement the JobTracker's per-machine
	// failure blacklist, and expiryQ queues the blacklisted machines by
	// expiry; all three are empty unless fault injection is on.
	blacklistUntil []time.Duration
	failCount      []int
	expiryQ        machineQueue

	// sampleBuf backs estimateJoules' per-completion sample slice (at most
	// shuffle + compute), keeping the completion path allocation-free.
	sampleBuf [2]power.TaskSample

	// agg is the incremental-statistics layer serving the scheduler hot
	// path (see aggregates.go); typeReps is one representative spec per
	// machine type in sorted type-name order; mapEst tabulates the
	// map-service estimate per (app, type), indexed by estIndex, from the
	// run's config.
	agg      aggregates
	typeReps []*cluster.TypeSpec
	mapEst   []float64

	// done tallies completions per (type, app, kind) cell, indexed by
	// doneIndex, and doneByMachine per machine ID, each cell summed in
	// completion order; finalizeStats publishes them into Stats' maps.
	done          []EnergyPair
	doneByMachine []int

	// onMutation is the test-only invariant hook (EnableInvariantChecks).
	onMutation func(where string)

	// Typed event kinds (sim.RegisterKind jump table), one per event the
	// driver schedules — heartbeat sweeps, control ticks, submissions,
	// completion/failure timers, the reduce shuffle→compute transition and
	// the fault process. Each carries at most an index and a task or job
	// pointer, so scheduling one allocates nothing.
	evHeartbeat     sim.EventKind
	evControl       sim.EventKind
	evSubmit        sim.EventKind
	evComplete      sim.EventKind
	evFail          sim.EventKind
	evReduceCompute sim.EventKind
	// Fault kinds: a stochastic crash or recovery carries the machine ID; a
	// scripted event carries its index into cfg.Fault.Scenario.
	evCrash    sim.EventKind
	evRecover  sim.EventKind
	evScripted sim.EventKind

	// victims is crashMachine's kill-list scratch.
	victims []*Task
}

// runState is the driver's per-run state. Reset assigns it in one
// statement, so a field added here starts every run at its zero value
// with no reset code.
type runState struct {
	cfg   Config
	sched Scheduler
	// probe is the optional observability recorder; nil when disabled.
	// Call sites guard with an explicit nil check so the disabled hot
	// path computes no event arguments and allocates nothing.
	probe *probe.Probe
	// slotObs receives free-slot change notifications when the scheduler
	// implements SlotObserver.
	slotObs SlotObserver
	stats   *Stats

	unsubmit   int
	tickOffset int
	// tasksDone is the running total of the completion tallies, read by
	// every control tick.
	tasksDone int

	totalSlots       int
	totalMapSlots    int
	totalReduceSlots int
}

// NewDriver wires a driver for one run. The scheduler must not be shared
// across drivers.
func NewDriver(c *cluster.Cluster, sched Scheduler, cfg Config) (*Driver, error) {
	d := &Driver{
		engine:  sim.NewEngine(),
		cluster: c,
		ns:      hdfs.NewNamespace(c, hdfs.DefaultReplication, 0),
		meter:   power.NewMeter(c),
	}
	d.ctx = &Context{
		Cluster: c,
		HDFS:    d.ns,
		Rng:     new(sim.RNG),
		driver:  d,
	}
	engine := d.engine
	d.evHeartbeat = engine.RegisterKind(func(int, any) { d.heartbeatTick() })
	d.evControl = engine.RegisterKind(func(int, any) { d.controlTickEvent() })
	d.evSubmit = engine.RegisterKind(func(_ int, arg any) { d.submit(arg.(*Job)) })
	d.evComplete = engine.RegisterKind(func(_ int, arg any) { d.completeTask(arg.(*Task)) })
	d.evFail = engine.RegisterKind(func(_ int, arg any) { d.failAttempt(arg.(*Task)) })
	d.evReduceCompute = engine.RegisterKind(func(_ int, arg any) { d.beginReduceCompute(arg.(*Task)) })
	// A stochastic crash arms the repair and a repair arms the next crash,
	// each drawing its phase after the hook so the fault stream is consumed
	// in event order.
	d.evCrash = engine.RegisterKind(func(id int, _ any) {
		d.crashMachine(id)
		d.engine.ScheduleKindAfter(d.faults.DownPhase(), d.evRecover, id, nil)
	})
	d.evRecover = engine.RegisterKind(func(id int, _ any) {
		d.recoverMachine(id)
		d.engine.ScheduleKindAfter(d.faults.UpPhase(), d.evCrash, id, nil)
	})
	d.evScripted = engine.RegisterKind(func(i int, _ any) {
		if ev := d.cfg.Fault.Scenario[i]; ev.Kind == fault.Crash {
			d.crashMachine(ev.Machine)
		} else {
			d.recoverMachine(ev.Machine)
		}
	})
	d.initAggregates()
	d.initTables()
	if err := d.Reset(sched, cfg); err != nil {
		return nil, err
	}
	return d, nil
}

// Meter exposes the run's power meter (read-only use).
func (d *Driver) Meter() *power.Meter { return d.meter }

// Engine exposes the run's event engine (read-only use).
func (d *Driver) Engine() *sim.Engine { return d.engine }

// Run executes the given jobs to completion (or until horizon, if
// non-negative) and returns the collected statistics.
func (d *Driver) Run(specs []workload.JobSpec, horizon time.Duration) (*Stats, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("mapreduce: no jobs to run")
	}
	maps, tasks := 0, 0
	for i := range specs {
		if err := specs[i].Validate(); err != nil {
			return nil, err
		}
		maps += specs[i].NumMaps
		tasks += specs[i].NumMaps + specs[i].NumReduces
	}
	// The run's locality entries and its pending-queue entries each share
	// one array, linked by int32 index, so the whole mix must fit before
	// anything is placed or sized.
	if reps := d.ns.Replication(); maps > math.MaxInt32/reps {
		return nil, fmt.Errorf("mapreduce: %d maps × %d replicas in one run, more than the locality index's %d entries",
			maps, reps, math.MaxInt32)
	}
	if tasks > math.MaxInt32 {
		return nil, fmt.Errorf("mapreduce: %d tasks in one run, more than the pending queues' %d entries", tasks, math.MaxInt32)
	}

	// Place every input, then carve each job out of the arena and schedule
	// its submission. The namespace reset rewound the HDFS stream, so the
	// replica draws of a rerun replay bit-identically, and a rerun of the
	// namespace's last placement restores it without drawing.
	if err := d.ns.Place(specs); err != nil {
		return nil, fmt.Errorf("mapreduce: placing job inputs: %w", err)
	}
	d.arena.size(specs, d.cluster.Size(), len(d.typeReps), d.ns.Stride())
	for i, spec := range specs {
		job := d.arena.carve(i, spec, d.ns.File(spec.ID))
		d.engine.ScheduleKind(spec.Submit, d.evSubmit, 0, job)
	}
	d.unsubmit = len(specs)

	// Heartbeat and control loops: typed self-rescheduling sweep events
	// (see heartbeatTick/controlTickEvent), so the periodic hot path
	// allocates nothing per tick.
	d.engine.ScheduleKind(0, d.evHeartbeat, 0, nil)
	d.engine.ScheduleKind(d.cfg.ControlInterval, d.evControl, 0, nil)

	// Fault process: one first-crash draw per machine in ID order, then the
	// scripted scenario's in-fleet events. A disabled configuration
	// schedules nothing and draws nothing. Scripted events need no sort:
	// the engine fires them by time, and same-instant ones in the order
	// armed here — the configured order.
	if d.cfg.Fault.MachineMTBF > 0 {
		for id := 0; id < d.cluster.Size(); id++ {
			d.engine.ScheduleKindAfter(d.faults.UpPhase(), d.evCrash, id, nil)
		}
	}
	for i, ev := range d.cfg.Fault.Scenario {
		if ev.Machine < d.cluster.Size() {
			d.engine.ScheduleKind(ev.At, d.evScripted, i, nil)
		}
	}

	// completeJob stops the engine at the instant the campaign finishes,
	// so the makespan (and the energy-integration window) ends at the
	// last task rather than at a dangling ticker event.
	if err := d.engine.RunUntil(horizon); err != nil && err != sim.ErrStopped {
		return nil, fmt.Errorf("mapreduce: run: %w", err)
	}
	d.finalizeStats()
	return d.stats, nil
}

func (d *Driver) finished() bool { return d.unsubmit == 0 && len(d.active) == 0 }

// heartbeatTick is the per-tick heartbeat sweep event: it serves every
// machine's free slots in one pass, then reschedules itself one heartbeat
// out (fire, then reschedule). The self-chain ends when the run finishes.
func (d *Driver) heartbeatTick() {
	if d.finished() {
		return
	}
	d.serveHeartbeats()
	d.engine.ScheduleKindAfter(d.cfg.Heartbeat, d.evHeartbeat, 0, nil)
}

// controlTickEvent is the periodic control-interval event, typed for the
// same zero-allocation reason as heartbeatTick.
func (d *Driver) controlTickEvent() {
	if d.finished() {
		return
	}
	d.controlTick()
	d.engine.ScheduleKindAfter(d.cfg.ControlInterval, d.evControl, 0, nil)
}

func (d *Driver) submit(j *Job) {
	j.Submitted = d.engine.Now()
	prof := workload.ProfileOf(j.Spec.App)
	shuffleMB := j.Spec.ShuffleMBPerReduce()
	for i, spec := range d.typeReps {
		_, _, j.reduceEst[i] = reduceService(prof, shuffleMB, spec, d.cfg.NetShareDivisor)
	}
	d.active = append(d.active, j)
	d.unsubmit--
	if d.probe != nil {
		d.probe.JobSubmit(j.Submitted, j.Spec.ID, j.Spec.App.String(), len(j.Maps), len(j.Reduces))
	}
	d.notePending(j, MapTask, j.PendingMaps())
	d.notePending(j, ReduceTask, j.PendingReduces())
	d.syncReduceGate(j)
	// Degenerate jobs with zero tasks complete immediately.
	if len(j.Maps) == 0 && len(j.Reduces) == 0 {
		d.completeJob(j)
	}
	d.mutated("submit")
}

// serveHeartbeats walks machines in rotating order, filling free slots via
// the scheduler. Rotation prevents machine 0 from perpetually seeing the
// freshest task queues. The rotation is two contiguous passes over the
// machine slice rather than a modulo walk: at 1024 machines the per-tick
// index arithmetic is itself measurable.
func (d *Driver) serveHeartbeats() {
	machines := d.cluster.Machines()
	n := len(machines)
	d.tickOffset = (d.tickOffset + 1) % n
	d.expireBlacklists()
	countable := d.offersCountable()
	visitedMap, visitedReduce, counted := d.sweep(machines[d.tickOffset:], countable, 0, 0)
	if !counted {
		d.sweep(machines[:d.tickOffset], countable, visitedMap, visitedReduce)
	}
	// Machine sampling piggybacks on the heartbeat sweep: no extra engine
	// events, so the (at, seq) order of the run is untouched.
	if d.probe != nil && d.probe.ShouldSample() {
		d.sampleMachines()
	}
}

// offersCountable reports whether this heartbeat may count its idle offers
// instead of making them (see sweep). It needs the probe off (every offer
// is a probe event) and a QuietWhenIdle policy.
func (d *Driver) offersCountable() bool {
	if d.probe != nil {
		return false
	}
	_, ok := d.sched.(QuietWhenIdle)
	return ok
}

// sweep offers every free slot of the given machines to the scheduler, in
// slice order. Per-tick invariants (power management, blacklist, probe)
// are hoisted out of the per-machine body.
//
// When countable and both the pending-map and ready-reduce aggregates are
// zero, the sweep finishes the heartbeat without visiting the machines not
// yet served. It puts to sleep those the walk would (sleepDue), then adds
// the offers each would get, one nil offer per kind it has a free slot
// for: the awake and asleep classes' host counts (dead and blacklisted
// machines get none), minus visitedMap and visitedReduce (the machines
// already served this heartbeat that still hold a free slot of the kind).
// It returns counted = true: the heartbeat is over. Otherwise it returns
// the visited counts grown by its own machines, for the second half of the
// rotation.
func (d *Driver) sweep(machines []cluster.Machine, countable bool, visitedMap, visitedReduce int) (int, int, bool) {
	powerOn := d.cfg.Power.Enabled
	blacklistOn := d.blacklistUntil != nil
	probe := d.probe
	for _, m := range machines {
		if countable && d.agg.pendingMaps == 0 && d.agg.readyPendingReduces == 0 {
			d.sleepDue()
			awake, asleep := &d.agg.byClass[classAwake], &d.agg.byClass[classAsleep]
			d.stats.MapOffers += awake.mapHosts + asleep.mapHosts - visitedMap
			d.stats.ReduceOffers += awake.reduceHosts + asleep.reduceHosts - visitedReduce
			return visitedMap, visitedReduce, true
		}
		if !m.Available() {
			continue
		}
		if powerOn {
			d.maybeSleep(m)
		}
		if blacklistOn && d.blacklisted(m.ID()) {
			continue
		}
		for m.FreeMapSlots() > 0 {
			d.stats.MapOffers++
			if probe != nil {
				probe.Offer(d.engine.Now(), m.ID(), int8(MapTask), d.agg.pendingMaps)
			}
			t := d.sched.AssignMap(d.ctx, m)
			if t == nil {
				break
			}
			d.startMap(t, m)
		}
		for m.FreeReduceSlots() > 0 {
			d.stats.ReduceOffers++
			if probe != nil {
				probe.Offer(d.engine.Now(), m.ID(), int8(ReduceTask), d.agg.readyPendingReduces)
			}
			t := d.sched.AssignReduce(d.ctx, m)
			if t == nil {
				break
			}
			d.startReduce(t, m)
		}
		if countable {
			visitedMap += hosts(m.FreeMapSlots())
			visitedReduce += hosts(m.FreeReduceSlots())
		}
	}
	return visitedMap, visitedReduce, false
}

// sampleMachines records one utilization/energy/slot sample per machine,
// in machine-ID order. Energy is read up to each machine's last meter
// sync — the probe must never force a sync, because splitting the meter's
// float-integration intervals would drift TotalJoules' low bits and break
// the bit-identical-Stats contract.
func (d *Driver) sampleMachines() {
	now := d.engine.Now()
	for _, m := range d.cluster.Machines() {
		d.probe.Sample(now, m.ID(), m.Spec().Name, m.Utilization(),
			d.meter.MachineJoules(m.ID()), m.FreeMapSlots(), m.FreeReduceSlots())
	}
}

// sleepCandidate reports whether m may sleep once idle long enough:
// consolidation is on and m is available, awake, idle and not covering.
func (d *Driver) sleepCandidate(m cluster.Machine) bool {
	return d.lastBusy != nil && m.Available() && !m.Asleep() && m.Running() == 0 && !d.covering[m.ID()]
}

// queueSleep adds m to the sleep queue, keyed by its lastBusy, if it is a
// sleep candidate.
func (d *Driver) queueSleep(m cluster.Machine) {
	if d.sleepCandidate(m) {
		d.sleepQ.push(m.ID(), d.lastBusy[m.ID()])
	}
}

// sleepDue puts to sleep every machine that maybeSleep would: each sleep
// candidate idle for at least IdleTimeout. Every candidate is queued keyed
// at or before its lastBusy, so popping the entries due by that key finds
// them all. A popped machine that is still a candidate but idle for less
// than the timeout (busy again since it was queued, or freed with a newer
// lastBusy) goes back under its current lastBusy; one that is busy, asleep
// or dead drops out until it becomes a candidate again. Machines do not go
// idle in lastBusy order (failJob and killTask free slots without touching
// it), which is why this is a heap, not a FIFO. With consolidation off the
// queue is empty.
func (d *Driver) sleepDue() {
	limit := d.engine.Now() - d.cfg.Power.IdleTimeout
	for id, ok := d.sleepQ.popDue(limit); ok; id, ok = d.sleepQ.popDue(limit) {
		m := d.cluster.Machine(id)
		d.maybeSleep(m)
		d.queueSleep(m)
	}
}

// maybeSleep powers m down when it is a sleep candidate that has been
// fully idle past the timeout.
func (d *Driver) maybeSleep(m cluster.Machine) {
	if !d.sleepCandidate(m) || d.engine.Now()-d.lastBusy[m.ID()] < d.cfg.Power.IdleTimeout {
		return
	}
	d.meter.Sync(m, d.engine.Now())
	m.Sleep(d.cfg.Power.SleepWatts)
	d.stats.Sleeps++
	if d.probe != nil {
		d.probe.MachineState(d.engine.Now(), m.ID(), "sleep")
	}
	d.reclassify(m)
	d.mutated("sleep")
}

// wakeIfNeeded powers m up for an incoming task, returning the wake
// latency to prepend to the task's service time.
func (d *Driver) wakeIfNeeded(m cluster.Machine) float64 {
	if !m.Asleep() {
		return 0
	}
	d.meter.Sync(m, d.engine.Now())
	m.Wake()
	d.stats.Wakes++
	if d.probe != nil {
		d.probe.MachineState(d.engine.Now(), m.ID(), "wake")
	}
	d.reclassify(m)
	d.queueSleep(m) // idle until the incoming task takes its slot
	d.mutated("wake")
	return d.cfg.Power.WakeLatency.Seconds()
}

func (d *Driver) controlTick() {
	d.meter.SyncAll(d.engine.Now())
	if d.probe != nil {
		d.probe.ControlTick(d.engine.Now(), d.meter.TotalJoules(), d.tasksDone)
	}
	d.sched.OnControlTick(d.ctx)
}

// isLocal resolves a map task's data locality, honoring the forced
// fraction when configured.
func (d *Driver) isLocal(t *Task, m cluster.Machine) bool {
	if f := d.cfg.ForcedLocalFraction; f >= 0 {
		return d.local.Bernoulli(f)
	}
	return slices.Contains(t.Job.mapReplicas(t.Index), int32(m.ID()))
}

// TaskThreads is how many cores a Hadoop task's JVM occupies while its
// CPU phase runs (the mapper/reducer thread plus GC, spill and protocol
// threads). Profiles express CPU demand in reference core-seconds; the
// wall-clock CPU phase is that work spread over TaskThreads cores.
const TaskThreads = 1.6

// mapService returns the noise-free wall-clock CPU seconds and total
// service seconds of a map task with the given input on a machine of the
// given spec.
func mapService(prof workload.Profile, inputMB float64, spec *cluster.TypeSpec, local bool, netDivisor float64) (cpuWallSecs, totalSecs float64) {
	cpuWallSecs = prof.MapCPUPerMB * inputMB / (spec.SpeedFactor * TaskThreads)
	diskShare := spec.DiskMBps / float64(spec.MapSlots)
	ioSecs := prof.MapIOPerMB * inputMB / diskShare
	netSecs := 0.0
	if !local {
		netSecs = inputMB / (spec.NetMBps / netDivisor)
	}
	return cpuWallSecs, cpuWallSecs + ioSecs + netSecs
}

// reduceService returns the noise-free shuffle seconds, wall-clock compute
// CPU seconds, and total compute seconds of a reduce task pulling
// shuffleMB.
func reduceService(prof workload.Profile, shuffleMB float64, spec *cluster.TypeSpec, netDivisor float64) (shuffleSecs, cpuWallSecs, computeSecs float64) {
	shuffleSecs = shuffleMB / (spec.NetMBps / netDivisor)
	cpuWallSecs = prof.ReduceCPUPerMB * shuffleMB / (spec.SpeedFactor * TaskThreads)
	diskShare := spec.DiskMBps / float64(spec.MapSlots)
	ioSecs := prof.ReduceIOPerMB * shuffleMB / diskShare
	return shuffleSecs, cpuWallSecs, cpuWallSecs + ioSecs
}

// taskUtil converts a task's CPU-phase occupancy into its whole-machine
// utilization share: TaskThreads cores busy for cpuWall of dur wall time.
func taskUtil(cpuWallSecs, durSecs float64, spec *cluster.TypeSpec) float64 {
	if durSecs <= 0 {
		return 0
	}
	u := TaskThreads * (cpuWallSecs / durSecs) / float64(spec.Cores)
	if u > 1 {
		u = 1
	}
	return u
}

// startMap computes the task's service time on m and schedules completion.
func (d *Driver) startMap(t *Task, m cluster.Machine) {
	if t.State != TaskPending {
		panic(fmt.Sprintf("mapreduce: starting %s in state %d", t.ID(), t.State))
	}
	spec := m.Spec()
	prof := workload.ProfileOf(t.Job.Spec.App)
	t.Local = d.isLocal(t, m)

	wake := d.wakeIfNeeded(m)
	cpuWall, base := mapService(prof, t.InputMB, spec, t.Local, d.cfg.NetShareDivisor)
	dur := base*d.noise.DurationFactorFor(base) + wake
	t.computeSecs = dur
	t.trueUtil = taskUtil(cpuWall, dur, spec)

	now := d.engine.Now()
	d.meter.Sync(m, now)
	if !m.AcquireMap(t.trueUtil) {
		panic(fmt.Sprintf("mapreduce: %s assigned map with no free slot", m))
	}
	d.noteSlotChange(m, MapTask, -1)
	t.State = TaskRunning
	t.Machine = m
	t.Start = now
	t.computeStart = now
	d.noteStart(t, m)
	d.stats.TotalMaps++
	if t.Local {
		d.stats.LocalMaps++
	}
	if d.probe != nil {
		d.probe.Assign(now, t.Job.Spec.ID, t.Index, m.ID(), int8(MapTask),
			t.Job.Spec.App.String(), t.Local, dur, (now - t.Job.Submitted).Seconds())
	}
	d.mutated("startMap")
	if d.faults.AttemptFails() {
		t.doomed = true
		t.pendingEvent = d.engine.ScheduleKindAfter(secsToDur(dur*d.faults.FailurePoint()), d.evFail, 0, t)
		return
	}
	t.pendingEvent = d.engine.ScheduleKindAfter(secsToDur(dur), d.evComplete, 0, t)
}

// startReduce begins a reduce's shuffle phase; the compute phase is
// finalized once the job's map barrier has passed.
func (d *Driver) startReduce(t *Task, m cluster.Machine) {
	if t.State != TaskPending {
		panic(fmt.Sprintf("mapreduce: starting %s in state %d", t.ID(), t.State))
	}
	spec := m.Spec()
	prof := workload.ProfileOf(t.Job.Spec.App)
	wake := d.wakeIfNeeded(m)
	shuffleSecs, cpuWall, computeSecs := reduceService(prof, t.InputMB, spec, d.cfg.NetShareDivisor)

	factor := d.noise.DurationFactorFor(shuffleSecs + computeSecs)
	t.shuffleSecs = shuffleSecs*factor + wake
	t.computeSecs = computeSecs * factor
	if t.computeSecs <= 0 {
		t.computeSecs = 0.001
	}
	t.trueUtil = taskUtil(cpuWall*factor, t.computeSecs, spec)
	// Shuffle is copy/merge work: charge a modest fraction of one core.
	t.shuffleUtil = 0.25 / float64(spec.Cores)

	now := d.engine.Now()
	d.meter.Sync(m, now)
	if !m.AcquireReduce(t.shuffleUtil) {
		panic(fmt.Sprintf("mapreduce: %s assigned reduce with no free slot", m))
	}
	d.noteSlotChange(m, ReduceTask, -1)
	t.State = TaskShuffling
	t.Machine = m
	t.Start = now
	d.noteStart(t, m)
	// Reduce failures strike the compute phase (shuffle errors just retry
	// fetches in Hadoop); the doom draw happens at assignment so the fault
	// stream is consumed in scheduling order.
	t.doomed = d.faults.AttemptFails()

	if d.probe != nil {
		d.probe.Assign(now, t.Job.Spec.ID, t.Index, m.ID(), int8(ReduceTask),
			t.Job.Spec.App.String(), false, t.shuffleSecs+t.computeSecs, (now - t.Job.Submitted).Seconds())
	}
	if t.Job.MapsDone() {
		d.finalizeReduce(t)
	}
	// Otherwise the map-barrier completion will finalize it.
	d.mutated("startReduce")
}

// finalizeReduce schedules the shuffle→compute transition and completion,
// callable only once the job's map output is fully available.
func (d *Driver) finalizeReduce(t *Task) {
	now := d.engine.Now()
	shuffleEnd := t.Start + secsToDur(t.shuffleSecs)
	if shuffleEnd < now {
		// Transfers could not complete before the map barrier.
		shuffleEnd = now
	}
	t.pendingEvent = d.engine.ScheduleKind(shuffleEnd, d.evReduceCompute, 0, t)
}

func (d *Driver) beginReduceCompute(t *Task) {
	m := t.Machine
	now := d.engine.Now()
	d.meter.Sync(m, now)
	// Swap the shuffle-phase CPU share for the compute-phase share.
	m.ReleaseReduce(t.shuffleUtil)
	if !m.AcquireReduce(t.trueUtil) {
		panic(fmt.Sprintf("mapreduce: %s lost reduce slot across phase change", m))
	}
	t.State = TaskRunning
	t.computeStart = now
	if end := now; end > t.Job.LastShuffleEnd {
		t.Job.LastShuffleEnd = end
	}
	if t.doomed {
		t.pendingEvent = d.engine.ScheduleKindAfter(secsToDur(t.computeSecs*d.faults.FailurePoint()), d.evFail, 0, t)
		return
	}
	t.pendingEvent = d.engine.ScheduleKindAfter(secsToDur(t.computeSecs), d.evComplete, 0, t)
}

// completeTask finishes t: frees the slot, computes the Eq. 2 energy
// estimate, updates job progress, and feeds the scheduler.
func (d *Driver) completeTask(t *Task) {
	m := t.Machine
	now := d.engine.Now()
	d.meter.Sync(m, now)
	switch t.Kind {
	case MapTask:
		m.ReleaseMap(t.trueUtil)
	case ReduceTask:
		m.ReleaseReduce(t.trueUtil)
	}
	// lastBusy before the release: a release that leaves m idle queues it
	// for sleep under its lastBusy.
	if d.lastBusy != nil {
		d.lastBusy[m.ID()] = now
	}
	d.noteSlotChange(m, t.Kind, 1)
	t.State = TaskDone
	t.Finish = now

	t.EstJoules = d.estimateJoules(t)
	t.TrueJoules = d.trueJoules(t)
	if d.probe != nil {
		d.probe.Complete(now, t.Job.Spec.ID, t.Index, m.ID(), int8(t.Kind),
			t.EstJoules, t.TrueJoules, t.Duration().Seconds())
	}

	j := t.Job
	j.removeInFlight(t)

	// Resolve a speculation race: the first attempt to finish wins, the
	// sibling is killed and never counted toward job progress.
	if loser := t.clone; loser != nil {
		d.killTask(loser)
		t.clone = nil
	}
	if orig := t.original; orig != nil {
		d.killTask(orig)
		orig.clone = nil
		t.original = nil
		d.stats.SpeculativeWon++
		// Mirror the clone's completion onto the canonical attempt: barrier
		// and lost-map-output scans walk j.Maps, so the canonical must
		// record where the winning output actually lives.
		orig.State = TaskDone
		orig.Machine = t.Machine
		orig.Start, orig.Finish = t.Start, t.Finish
	}
	switch t.Kind {
	case MapTask:
		j.mapsDone++
		d.syncReduceGate(j)
		if j.MapsDone() {
			j.MapsDoneAt = now
			if j.LastShuffleEnd < now {
				j.LastShuffleEnd = now
			}
			// Release reduces that were shuffling against the barrier.
			for i := range j.Reduces {
				if r := &j.Reduces[i]; r.State == TaskShuffling {
					d.finalizeReduce(r)
				}
			}
		}
	case ReduceTask:
		j.reducesDone++
	}

	d.recordTask(t)
	d.sched.OnTaskComplete(d.ctx, t)

	if j.mapsDone == len(j.Maps) && j.reducesDone == len(j.Reduces) && !j.done {
		d.completeJob(j)
	}
	d.mutated("completeTask")
}

// killTask terminates the losing attempt of a speculative pair: its next
// event is cancelled, its slot and CPU share released, and it is excluded
// from job progress and task records.
func (d *Driver) killTask(t *Task) {
	if t.State == TaskDone || t.State == TaskKilled {
		return
	}
	t.pendingEvent.Cancel()
	d.detachRunning(t)
	t.State = TaskKilled
	t.Finish = d.engine.Now()
	d.stats.SpeculativeKilled++
}

// detachRunning removes an in-flight attempt from its machine and job
// bookkeeping: its next event is cancelled, the power meter is synced, and
// the slot plus the phase's CPU share are released. Reports whether the
// attempt was actually in flight.
func (d *Driver) detachRunning(t *Task) bool {
	if t.State != TaskRunning && t.State != TaskShuffling {
		return false
	}
	t.pendingEvent.Cancel()
	m := t.Machine
	d.meter.Sync(m, d.engine.Now())
	util := t.currentUtil(t.State)
	if t.Kind == MapTask {
		m.ReleaseMap(util)
	} else {
		m.ReleaseReduce(util)
	}
	d.noteSlotChange(m, t.Kind, 1)
	t.Job.removeInFlight(t)
	return true
}

func (d *Driver) completeJob(j *Job) {
	j.done = true
	j.Finished = d.engine.Now()
	if len(j.Maps) == 0 {
		j.MapsDoneAt = j.Finished
	}
	if d.probe != nil {
		d.probe.JobDone(j.Finished, j.Spec.ID, false, j.MapsDoneAt, j.LastShuffleEnd)
	}
	d.dropJobAggregates(j)
	d.stats.Jobs = append(d.stats.Jobs, JobResult{
		Spec:           j.Spec,
		Submitted:      j.Submitted,
		FirstStart:     j.FirstStart,
		MapsDoneAt:     j.MapsDoneAt,
		LastShuffleEnd: j.LastShuffleEnd,
		Finished:       j.Finished,
	})
	for i, a := range d.active {
		if a == j {
			d.active = append(d.active[:i], d.active[i+1:]...)
			break
		}
	}
	d.mutated("completeJob")
	if d.finished() {
		d.engine.Stop()
	}
}

// estimateJoules evaluates Eq. 2 with heartbeat quantization and
// measurement noise — the value a real TaskTracker would report.
func (d *Driver) estimateJoules(t *Task) float64 {
	spec := t.Machine.Spec()
	dt := d.cfg.Heartbeat
	// A real TaskTracker samples at heartbeats: a task alive for k
	// intervals reports k samples, so the reconstructed duration is the
	// actual one rounded to the nearest heartbeat multiple (unbiased for
	// short tasks, unlike rounding up).
	quantize := func(secs float64) time.Duration {
		n := math.Round(secs / dt.Seconds())
		if n < 1 {
			n = 1
		}
		return time.Duration(n) * dt
	}
	samples := d.sampleBuf[:0]
	if t.Kind == ReduceTask && t.shuffleSecs > 0 {
		samples = append(samples, power.TaskSample{
			Util: t.shuffleUtil * d.noise.MeasurementFactor(),
			Dt:   quantize(t.shuffleSecs),
		})
	}
	samples = append(samples, power.TaskSample{
		Util: t.trueUtil * d.noise.MeasurementFactor(),
		Dt:   quantize(t.computeSecs),
	})
	return power.EstimateTaskJoules(spec, samples)
}

// trueJoules is the noise-free marginal energy of the task: its idle-power
// share plus its dynamic draw over its actual phases.
func (d *Driver) trueJoules(t *Task) float64 {
	spec := t.Machine.Spec()
	idleShare := spec.IdleWatts / float64(spec.Slots())
	joules := (idleShare + spec.AlphaWatts*t.trueUtil) * t.computeSecs
	if t.Kind == ReduceTask {
		// The shuffle phase actually spans Start→compute-begin, which the
		// map barrier may stretch beyond shuffleSecs.
		shuffleSpan := t.Duration().Seconds() - t.computeSecs
		if shuffleSpan < 0 {
			shuffleSpan = 0
		}
		joules += (idleShare + spec.AlphaWatts*t.shuffleUtil) * shuffleSpan
	}
	return joules
}

func (d *Driver) noteStart(t *Task, m cluster.Machine) {
	j := t.Job
	if !j.started {
		j.started = true
		j.FirstStart = d.engine.Now()
	}
	j.addInFlight(t)
	if d.lastBusy != nil {
		d.lastBusy[m.ID()] = d.engine.Now()
	}
}

func (d *Driver) recordTask(t *Task) {
	id := t.Machine.ID()
	cell := &d.done[d.doneIndex(d.agg.typeIdx[id], t.Job.Spec.App, t.Kind)]
	cell.EstJoules += t.EstJoules
	cell.TrueJoules += t.TrueJoules
	cell.Tasks++
	d.doneByMachine[id]++
	d.tasksDone++

	if d.cfg.KeepTaskRecords {
		d.stats.Tasks = append(d.stats.Tasks, TaskRecord{
			JobID:       t.Job.Spec.ID,
			App:         t.Job.Spec.App,
			Class:       t.Job.Spec.Class,
			Kind:        t.Kind,
			MachineID:   t.Machine.ID(),
			MachineType: t.Machine.Spec().Name,
			Start:       t.Start,
			Finish:      t.Finish,
			EstJoules:   t.EstJoules,
			TrueJoules:  t.TrueJoules,
			Local:       t.Local,
		})
	}
}

func (d *Driver) finalizeStats() {
	now := d.engine.Now()
	d.meter.SyncAll(now)
	s := d.stats
	s.Horizon = now
	size := d.cluster.Size()
	s.MachineJoules = make([]float64, size)
	s.MachineAvgUtil = make([]float64, size)
	for id := 0; id < size; id++ {
		s.MachineJoules[id] = d.meter.MachineJoules(id)
		s.MachineAvgUtil[id] = d.meter.AvgUtilization(id, now)
	}
	s.TypeJoules = d.meter.TypeJoules()
	s.TypeAvgUtil = d.meter.TypeAvgUtilization(now)
	s.TotalJoules = d.meter.TotalJoules()

	// A key exists only where a task completed, as if each completion had
	// updated the maps directly.
	apps := workload.Apps()
	for ti, spec := range d.typeReps {
		for _, app := range apps {
			for _, kind := range [...]TaskKind{MapTask, ReduceTask} {
				cell := d.done[d.doneIndex(ti, app, kind)]
				if cell.Tasks == 0 {
					continue
				}
				key := AppKindKey{MachineType: spec.Name, App: app, Kind: kind}
				s.Completed[key] = cell.Tasks
				s.Energy[key] = cell
			}
		}
	}
	for id, n := range d.doneByMachine {
		if n > 0 {
			s.CompletedByMachine[id] = n
		}
	}
}

// initTables sizes the per-(app, type) estimate table and the completion
// tallies; Reset fills them.
func (d *Driver) initTables() {
	apps, types := len(workload.Apps()), len(d.typeReps)
	d.mapEst = make([]float64, apps*types)
	d.done = make([]EnergyPair, 2*apps*types)
	d.doneByMachine = make([]int, d.cluster.Size())
}

// tabulateEstimates fills mapEst from the current config. Every Reset
// recomputes the whole table, so it never outlives the config it was
// computed from.
func (d *Driver) tabulateEstimates() {
	for _, app := range workload.Apps() {
		prof := workload.ProfileOf(app)
		for ti, spec := range d.typeReps {
			_, d.mapEst[d.estIndex(app, ti)] = mapService(prof, workload.BlockMB, spec, true, d.cfg.NetShareDivisor)
		}
	}
}

// estIndex locates the (app, type) cell of mapEst.
func (d *Driver) estIndex(app workload.App, ti int) int {
	return int(app-workload.Wordcount)*len(d.typeReps) + ti
}

// doneIndex locates the (type, app, kind) cell of the completion tallies.
func (d *Driver) doneIndex(ti int, app workload.App, kind TaskKind) int {
	return 2*d.estIndex(app, ti) + int(kind-MapTask)
}

// secsToDur converts fractional seconds to a time.Duration, guarding
// against negative values from float drift.
func secsToDur(secs float64) time.Duration {
	if secs < 0 {
		secs = 0
	}
	return time.Duration(secs * float64(time.Second))
}
