// Package probe is the simulator's live observability layer: a recorder of
// structured decision events (slot offer → roulette draw → assignment),
// per-control-tick pheromone snapshots, and per-machine utilization/energy
// time series, all stamped with the simulated clock — never the wall
// clock. Each event is passed, as it is recorded, to an optional
// in-process sink; the probe itself keeps no event, only the counts and
// fixed-boundary histograms of its Report.
//
// The package is a pure observer with a hard determinism contract: a probe
// never draws from a random stream, never schedules an engine event, and
// never syncs the power meter (an extra sync would split float-integration
// intervals and drift the low bits of TotalJoules). A run with a probe
// attached therefore produces bit-identical Stats to the same run without
// one — golden tests enforce this byte-for-byte.
//
// The disabled path is free: a nil *Probe is a valid receiver for every
// recording method, and instrumented call sites additionally guard with a
// nil check so the hot path computes no arguments and allocates nothing
// (bench-verified: 0 allocs/op on the scale grid).
//
// probe deliberately depends only on the standard library: both the
// mapreduce driver and the E-Ant policy import it, so any dependency on a
// simulator package would cycle.
package probe

import (
	"slices"
	"time"
)

// Histogram bucket boundaries. Fixed boundaries (rather than adaptive
// ones) keep merged histograms exact: two probes observing the same values
// always produce identical, mergeable buckets.
var (
	// energyBounds buckets per-task metered energy in joules.
	energyBounds = []float64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000, 20000, 50000}
	// waitBounds buckets task queue wait (submit → start) in seconds.
	waitBounds = []float64{1, 2, 5, 10, 30, 60, 120, 300, 600, 1800, 3600}
	// gapBounds buckets per-machine offer gaps in seconds: the time
	// between successive slot offers to the same machine (offer latency).
	gapBounds = []float64{1, 3, 6, 15, 30, 60, 120, 300, 900}
)

// Config parameterizes a probe.
type Config struct {
	// SampleEvery emits a per-machine utilization/energy/slot sample every
	// N heartbeats (on the simulated clock). 0 disables sampling.
	SampleEvery int
	// Trails records each colony's pheromone row at every control tick.
	Trails bool
	// Sink, when non-nil, is called with every event at record time, in
	// sequence order; it is the only consumer of events, so a caller that
	// wants them kept appends them. It runs on the driver's goroutine. A
	// trail_row event's Row is allocated for that event alone and belongs
	// to the sink.
	Sink func(Event)
}

// Probe records observability events for one simulation run. A probe is
// owned by exactly one single-threaded driver; concurrent sweeps give each
// run its own probe and merge the Reports afterwards. The nil *Probe is
// the disabled probe: every method is a no-op.
type Probe struct {
	seq     uint64 // events recorded so far; next event's sequence number
	sink    func(Event)
	sampleN int
	hb      int
	trails  bool

	energy *Histogram // per-task metered joules
	wait   *Histogram // task queue wait seconds
	gap    *Histogram // per-machine offer gap seconds

	// lastOffer tracks, per machine, the previous offer instant for the
	// offer-gap histogram; -1 marks "no offer yet".
	lastOffer []time.Duration
}

// New builds a probe from cfg.
func New(cfg Config) *Probe {
	return &Probe{
		sink:    cfg.Sink,
		sampleN: cfg.SampleEvery,
		trails:  cfg.Trails,
		energy:  newHistogram(energyBounds),
		wait:    newHistogram(waitBounds),
		gap:     newHistogram(gapBounds),
	}
}

// Enabled reports whether the probe records anything (nil-safe).
func (p *Probe) Enabled() bool { return p != nil }

// TrailsEnabled reports whether pheromone-row snapshots are wanted.
func (p *Probe) TrailsEnabled() bool { return p != nil && p.trails }

// record numbers ev and passes it to the sink.
func (p *Probe) record(ev Event) {
	ev.Seq = p.seq
	p.seq++
	if p.sink != nil {
		p.sink(ev)
	}
}

// Offer records a free-slot offer on a machine (one AssignMap/AssignReduce
// call) and feeds the offer-gap histogram with the time since the
// machine's previous offer.
func (p *Probe) Offer(at time.Duration, machineID int, kind int8, pending int) {
	if p == nil {
		return
	}
	for len(p.lastOffer) <= machineID {
		p.lastOffer = append(p.lastOffer, -1)
	}
	if prev := p.lastOffer[machineID]; prev >= 0 && at > prev {
		p.gap.Observe((at - prev).Seconds())
	}
	p.lastOffer[machineID] = at
	p.record(Event{At: at, Kind: KindOffer, TaskKind: kind, MachineID: int32(machineID), N: int32(pending)})
}

// Draw records one roulette draw of the E-Ant colony selection: the chosen
// job's trail τ on the offering machine, its Eq. 8 weight, and whether the
// path-acceptance gate let the assignment through.
func (p *Probe) Draw(at time.Duration, machineID, jobID int, kind int8, tau, weight float64, accepted bool) {
	if p == nil {
		return
	}
	p.record(Event{At: at, Kind: KindDraw, TaskKind: kind, MachineID: int32(machineID),
		JobID: int32(jobID), A: tau, B: weight, Flag: accepted})
}

// Assign records a task start: job/index/machine, the app label, locality,
// the service estimate and the queue wait (submit → start), which also
// feeds the wait histogram.
func (p *Probe) Assign(at time.Duration, jobID, index, machineID int, kind int8, app string, local bool, estSecs, waitSecs float64) {
	if p == nil {
		return
	}
	p.wait.Observe(waitSecs)
	p.record(Event{At: at, Kind: KindAssign, TaskKind: kind, JobID: int32(jobID), Index: int32(index),
		MachineID: int32(machineID), Label: app, Flag: local, A: estSecs, B: waitSecs})
}

// Complete records a task completion with its Eq. 2 energy estimate, the
// metered ground truth (which feeds the energy histogram), and the
// attempt's total duration in seconds.
func (p *Probe) Complete(at time.Duration, jobID, index, machineID int, kind int8, estJoules, trueJoules, durSecs float64) {
	if p == nil {
		return
	}
	p.energy.Observe(trueJoules)
	p.record(Event{At: at, Kind: KindComplete, TaskKind: kind, JobID: int32(jobID), Index: int32(index),
		MachineID: int32(machineID), A: estJoules, B: trueJoules, C: durSecs})
}

// ControlTick records a control-interval boundary with the fleet energy
// and completed-task count at that instant.
func (p *Probe) ControlTick(at time.Duration, totalJoules float64, tasksDone int) {
	if p == nil {
		return
	}
	p.record(Event{At: at, Kind: KindControlTick, A: totalJoules, N: int32(tasksDone)})
}

// TrailRow records one colony's pheromone row at a control tick. A sink
// gets a copy of the row, so callers may reuse the slice; with no sink the
// row is not copied.
func (p *Probe) TrailRow(at time.Duration, jobID int, kind int8, app string, row []float64) {
	if p == nil {
		return
	}
	ev := Event{At: at, Kind: KindTrailRow, TaskKind: kind, JobID: int32(jobID), Label: app}
	if p.sink != nil {
		ev.Row = slices.Clone(row)
	}
	p.record(ev)
}

// MachineState records a machine availability transition: "sleep", "wake",
// "crash", "recover" or "blacklist".
func (p *Probe) MachineState(at time.Duration, machineID int, state string) {
	if p == nil {
		return
	}
	p.record(Event{At: at, Kind: KindMachineState, MachineID: int32(machineID), Label: state})
}

// JobSubmit records a job entering the system with its task counts.
func (p *Probe) JobSubmit(at time.Duration, jobID int, app string, maps, reduces int) {
	if p == nil {
		return
	}
	p.record(Event{At: at, Kind: KindJobSubmit, JobID: int32(jobID), Label: app,
		N: int32(maps), M: int32(reduces)})
}

// JobDone records a job leaving the system, failed or completed, with its
// phase timeline: when the last map finished (the shuffle barrier) and
// when the last reduce finished its shuffle.
func (p *Probe) JobDone(at time.Duration, jobID int, failed bool, mapsDone, shuffleEnd time.Duration) {
	if p == nil {
		return
	}
	p.record(Event{At: at, Kind: KindJobDone, JobID: int32(jobID), Flag: failed,
		A: mapsDone.Seconds(), B: shuffleEnd.Seconds()})
}

// ShouldSample advances the heartbeat counter and reports whether this
// heartbeat is a sampling one. The driver calls it once per heartbeat
// sweep and, on true, feeds one Sample per machine.
func (p *Probe) ShouldSample() bool {
	if p == nil || p.sampleN <= 0 {
		return false
	}
	p.hb++
	if p.hb >= p.sampleN {
		p.hb = 0
		return true
	}
	return false
}

// Sample records one machine's utilization, accrued energy (up to its last
// meter sync — the probe never forces a sync) and free slots.
func (p *Probe) Sample(at time.Duration, machineID int, machineType string, util, joules float64, freeMap, freeReduce int) {
	if p == nil {
		return
	}
	p.record(Event{At: at, Kind: KindSample, MachineID: int32(machineID), Label: machineType,
		A: util, B: joules, N: int32(freeMap), M: int32(freeReduce)})
}
