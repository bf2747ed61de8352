package sched

import (
	"eant/internal/cluster"
	"eant/internal/mapreduce"
)

// Fair is the Hadoop Fair Scheduler with a single pool: every free slot
// goes to the active job furthest below its fair share (equal split of the
// slot pool), with data-local tasks preferred within the chosen job. It is
// the paper's primary heterogeneity-oblivious baseline.
type Fair struct{}

// NewFair returns a Fair scheduler.
func NewFair() *Fair { return &Fair{} }

var (
	_ mapreduce.Scheduler     = (*Fair)(nil)
	_ mapreduce.QuietWhenIdle = (*Fair)(nil)
)

// Name implements mapreduce.Scheduler.
func (f *Fair) Name() string { return "Fair" }

// QuietWhenIdle implements mapreduce.QuietWhenIdle: both Assign methods
// return nil untouched on an empty queue.
func (f *Fair) QuietWhenIdle() {}

// ResetForRun is a no-op: Fair carries no run state.
func (f *Fair) ResetForRun() {}

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
	if ctx.PendingTasks(mapreduce.MapTask) == 0 {
		return nil
	}
	j := neediest(ctx, func(j *mapreduce.Job) bool { return j.PendingMaps() > 0 })
	if j == nil {
		return nil
	}
	return ctx.PopMapPreferLocal(j, m)
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
