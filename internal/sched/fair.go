package sched

import (
	"eant/internal/cluster"
	"eant/internal/mapreduce"
)

// Fair is the Hadoop Fair Scheduler with a single pool: every free slot
// goes to the active job furthest below its fair share (equal split of the
// slot pool), with data-local tasks preferred within the chosen job. It is
// the paper's primary heterogeneity-oblivious baseline.
//
// With a non-zero locality wait it implements delay scheduling (Zaharia
// et al., EuroSys'10): a job with no data-local task on the offering
// machine is passed over for up to LocalityWaitTicks heartbeats before it
// accepts a remote assignment.
type Fair struct {
	// LocalityWaitTicks is how many consecutive non-local offers a job
	// declines before running remotely. Zero disables delay scheduling.
	LocalityWaitTicks int

	// skipped counts consecutive non-local offers per job ID.
	skipped map[int]int

	// considered is the per-offer scratch set for the delay-scheduling
	// walk, hoisted to a field so steady-state offers allocate nothing.
	considered map[int]bool
}

// NewFair returns a Fair scheduler without delay scheduling.
func NewFair() *Fair { return &Fair{} }

// NewFairWithDelay returns a Fair scheduler with delay scheduling: jobs
// wait up to waitTicks heartbeat offers for a data-local slot.
func NewFairWithDelay(waitTicks int) *Fair {
	return &Fair{LocalityWaitTicks: waitTicks}
}

var (
	_ mapreduce.Scheduler     = (*Fair)(nil)
	_ mapreduce.QuietWhenIdle = (*Fair)(nil)
)

// Name implements mapreduce.Scheduler.
func (f *Fair) Name() string { return "Fair" }

// QuietWhenIdle implements mapreduce.QuietWhenIdle: both Assign methods
// return nil on an empty queue before touching the skip counters.
func (f *Fair) QuietWhenIdle() {}

// ResetForRun clears the per-run delay-scheduling skip counters so the
// same instance can drive another simulation from scratch.
func (f *Fair) ResetForRun() {
	clear(f.skipped)
	clear(f.considered)
}

// neediest returns the eligible job with the largest fair-share deficit
// (fair share minus running tasks), ties broken by submission order.
func neediest(ctx *mapreduce.Context, eligible func(*mapreduce.Job) bool) *mapreduce.Job {
	var best *mapreduce.Job
	bestDeficit := 0.0
	for _, j := range ctx.ActiveJobs() {
		if !eligible(j) {
			continue
		}
		deficit := ctx.FairShare(j) - float64(j.Running())
		if best == nil || deficit > bestDeficit {
			best = j
			bestDeficit = deficit
		}
	}
	return best
}

// AssignMap implements mapreduce.Scheduler.
func (f *Fair) AssignMap(ctx *mapreduce.Context, m cluster.Machine) *mapreduce.Task {
	// An empty queue makes every walk below return nil without touching
	// the skip counters; most offers of a run see one.
	if ctx.PendingTasks(mapreduce.MapTask) == 0 {
		return nil
	}
	if f.LocalityWaitTicks <= 0 {
		j := neediest(ctx, func(j *mapreduce.Job) bool { return j.PendingMaps() > 0 })
		if j == nil {
			return nil
		}
		return ctx.PopMapPreferLocal(j, m)
	}

	// Delay scheduling: walk jobs in deficit order; take the first with
	// local work, let others accrue skips until their wait expires.
	if f.skipped == nil {
		f.skipped = make(map[int]int)
		f.considered = map[int]bool{}
	}
	clear(f.considered)
	for {
		j := neediest(ctx, func(j *mapreduce.Job) bool {
			return j.PendingMaps() > 0 && !f.considered[j.Spec.ID]
		})
		if j == nil {
			return nil
		}
		f.considered[j.Spec.ID] = true
		if ctx.HasLocalMap(j, m) {
			f.skipped[j.Spec.ID] = 0
			return ctx.PopMapPreferLocal(j, m)
		}
		if f.skipped[j.Spec.ID] >= f.LocalityWaitTicks {
			f.skipped[j.Spec.ID] = 0
			return ctx.PopMapAny(j)
		}
		f.skipped[j.Spec.ID]++
	}
}

// AssignReduce implements mapreduce.Scheduler.
func (f *Fair) AssignReduce(ctx *mapreduce.Context, m cluster.Machine) *mapreduce.Task {
	if ctx.ReadyReduceTasks() == 0 {
		return nil
	}
	j := neediest(ctx, func(j *mapreduce.Job) bool { return ctx.ReduceReady(j) })
	if j == nil {
		return nil
	}
	return ctx.PopReduce(j)
}

// OnTaskComplete implements mapreduce.Scheduler; Fair ignores feedback.
func (f *Fair) OnTaskComplete(*mapreduce.Context, *mapreduce.Task) {}

// OnControlTick implements mapreduce.Scheduler; Fair has no policy state.
func (f *Fair) OnControlTick(*mapreduce.Context) {}
