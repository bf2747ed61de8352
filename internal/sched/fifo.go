// Package sched implements the baseline task-assignment policies the paper
// compares E-Ant against: Hadoop's FIFO scheduler (the "default
// heterogeneity-agnostic Hadoop" that savings are measured over), the Fair
// Scheduler, and Tarazu's communication-aware load balancing [4].
package sched

import (
	"eant/internal/cluster"
	"eant/internal/mapreduce"
)

// FIFO is Hadoop's default scheduler: strict job-arrival order, data-local
// tasks preferred within the head job. Heterogeneity- and energy-oblivious.
type FIFO struct{}

// NewFIFO returns a FIFO scheduler.
func NewFIFO() *FIFO { return &FIFO{} }

var (
	_ mapreduce.Scheduler     = (*FIFO)(nil)
	_ mapreduce.QuietWhenIdle = (*FIFO)(nil)
)

// Name implements mapreduce.Scheduler.
func (f *FIFO) Name() string { return "FIFO" }

// QuietWhenIdle implements mapreduce.QuietWhenIdle: both Assign methods
// return nil untouched on an empty queue.
func (f *FIFO) QuietWhenIdle() {}

// ResetForRun is a no-op: FIFO carries no run state.
func (f *FIFO) ResetForRun() {}

// AssignMap hands m the oldest job's next map task, local block preferred.
func (f *FIFO) AssignMap(ctx *mapreduce.Context, m cluster.Machine) *mapreduce.Task {
	if ctx.PendingTasks(mapreduce.MapTask) == 0 {
		return nil
	}
	for _, j := range ctx.ActiveJobs() {
		if j.PendingMaps() == 0 {
			continue
		}
		if t := ctx.PopMapPreferLocal(j, m); t != nil {
			return t
		}
	}
	return nil
}

// AssignReduce hands m the oldest ready job's next reduce task.
func (f *FIFO) AssignReduce(ctx *mapreduce.Context, m cluster.Machine) *mapreduce.Task {
	if ctx.ReadyReduceTasks() == 0 {
		return nil
	}
	for _, j := range ctx.ActiveJobs() {
		if !ctx.ReduceReady(j) {
			continue
		}
		if t := ctx.PopReduce(j); t != nil {
			return t
		}
	}
	return nil
}

// OnTaskComplete implements mapreduce.Scheduler; FIFO ignores feedback.
func (f *FIFO) OnTaskComplete(*mapreduce.Context, *mapreduce.Task) {}

// OnControlTick implements mapreduce.Scheduler; FIFO has no policy state.
func (f *FIFO) OnControlTick(*mapreduce.Context) {}
