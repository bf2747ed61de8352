package sched

import (
	"eant/internal/cluster"
	"eant/internal/mapreduce"
)

// LATE approximates the Longest Approximate Time to End scheduler of
// Zaharia et al. [OSDI'08]: Fair-style assignment while pending work
// remains, plus speculative re-execution of straggling attempts on free
// slots once a job's queue drains. A running attempt is speculated when
// its elapsed time exceeds SpeculationFactor times its expected service
// time on its host, and only a bounded fraction of a job's attempts may
// be speculative at once (Hadoop's speculative cap).
//
// LATE is the heterogeneity-aware *performance* baseline from the
// paper's related work: it shortens straggler-stretched tails but, like
// Tarazu, never consults energy.
type LATE struct {
	fair Fair

	// SpeculationFactor is the elapsed/expected ratio beyond which an
	// attempt counts as a straggler. Hadoop's heuristic is ~1.2–1.5.
	SpeculationFactor float64
	// MaxSpeculativeFraction bounds in-flight clones per job, as a
	// fraction of the job's running attempts (minimum 1).
	MaxSpeculativeFraction float64

	// attempts is speculate's scratch buffer, reused on every offer.
	attempts []*mapreduce.Task
}

// NewLATE returns a LATE scheduler with Hadoop-like defaults.
func NewLATE() *LATE {
	return &LATE{SpeculationFactor: 1.5, MaxSpeculativeFraction: 0.1}
}

var _ mapreduce.Scheduler = (*LATE)(nil)

// Name implements mapreduce.Scheduler.
func (l *LATE) Name() string { return "LATE" }

// ResetForRun is a no-op: LATE carries no run state (its speculation
// thresholds are configuration, and the embedded Fair has none).
func (l *LATE) ResetForRun() {}

// AssignMap implements mapreduce.Scheduler: normal fair assignment first,
// speculation only with spare slots.
func (l *LATE) AssignMap(ctx *mapreduce.Context, m cluster.Machine) *mapreduce.Task {
	if t := l.fair.AssignMap(ctx, m); t != nil {
		return t
	}
	return l.speculate(ctx, m, mapreduce.MapTask)
}

// AssignReduce implements mapreduce.Scheduler.
func (l *LATE) AssignReduce(ctx *mapreduce.Context, m cluster.Machine) *mapreduce.Task {
	if t := l.fair.AssignReduce(ctx, m); t != nil {
		return t
	}
	return l.speculate(ctx, m, mapreduce.ReduceTask)
}

// speculate scans active jobs (submission order) for the worst straggler
// of the given kind whose clone could run on m, and clones it.
func (l *LATE) speculate(ctx *mapreduce.Context, m cluster.Machine, kind mapreduce.TaskKind) *mapreduce.Task {
	now := ctx.Now()
	var worst *mapreduce.Task
	worstRatio := l.SpeculationFactor
	for _, j := range ctx.ActiveJobs() {
		attempts := j.AppendRunningAttempts(l.attempts[:0], kind)
		l.attempts = attempts
		if len(attempts) == 0 {
			continue
		}
		clones := 0
		for _, t := range attempts {
			if t.Speculative() {
				clones++
			}
		}
		budget := int(l.MaxSpeculativeFraction * float64(len(attempts)))
		if budget < 1 {
			budget = 1
		}
		if clones >= budget {
			continue
		}
		for _, t := range attempts {
			if t.State != mapreduce.TaskRunning || t.HasClone() || t.Speculative() {
				continue
			}
			if t.Machine.Valid() && t.Machine.ID() == m.ID() {
				// Re-running on the same (possibly slow or noisy)
				// machine defeats the purpose.
				continue
			}
			expected := ctx.EstimateMapSeconds(j, ctx.TypeIndex(t.Machine))
			if kind == mapreduce.ReduceTask {
				expected = ctx.EstimateReduceSeconds(j, ctx.TypeIndex(t.Machine))
			}
			if expected <= 0 {
				continue
			}
			ratio := (now - t.ComputeStart()).Seconds() / expected
			if ratio > worstRatio {
				worstRatio = ratio
				worst = t
			}
		}
	}
	if worst == nil {
		return nil
	}
	return ctx.CloneForSpeculation(worst)
}

// OnTaskComplete implements mapreduce.Scheduler.
func (l *LATE) OnTaskComplete(*mapreduce.Context, *mapreduce.Task) {}

// OnControlTick implements mapreduce.Scheduler.
func (l *LATE) OnControlTick(*mapreduce.Context) {}
