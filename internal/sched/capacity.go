package sched

import (
	"fmt"

	"eant/internal/cluster"
	"eant/internal/mapreduce"
)

// Capacity is the Hadoop Capacity Scheduler (the other multi-tenant
// scheduler the paper's related work names): jobs are routed to named
// queues, each guaranteed a fraction of the slot pool; queues may borrow
// idle capacity beyond their guarantee and are preempted back to it only
// by attrition (running tasks finish). Within a queue, jobs run FIFO.
type Capacity struct {
	queues []CapacityQueue
	// route maps a job to a queue index; default routes by JobID modulo
	// queue count.
	route func(*mapreduce.Job) int

	// usage[queueIdx] counts running tasks per queue.
	usage map[int]int

	// queueOrder scratch, reused across slot offers (one scheduler per
	// single-threaded driver).
	idx     []int
	deficit []float64
}

// CapacityQueue declares one queue's share of the slot pool.
type CapacityQueue struct {
	Name  string
	Share float64 // fraction of total slots guaranteed, Σ ≤ 1
}

// NewCapacity builds a Capacity scheduler. With no queues it behaves as a
// single 100 % queue (plain FIFO).
func NewCapacity(queues []CapacityQueue, route func(*mapreduce.Job) int) (*Capacity, error) {
	if len(queues) == 0 {
		queues = []CapacityQueue{{Name: "default", Share: 1}}
	}
	var total float64
	for _, q := range queues {
		if q.Share <= 0 {
			return nil, fmt.Errorf("sched: queue %q has share %v", q.Name, q.Share)
		}
		total += q.Share
	}
	if total > 1+1e-9 {
		return nil, fmt.Errorf("sched: queue shares sum to %v > 1", total)
	}
	c := &Capacity{queues: queues, route: route, usage: make(map[int]int)}
	if c.route == nil {
		c.route = func(j *mapreduce.Job) int { return j.Spec.ID % len(queues) }
	}
	return c, nil
}

// MustNewCapacity is NewCapacity for known-valid configurations.
func MustNewCapacity(queues []CapacityQueue, route func(*mapreduce.Job) int) *Capacity {
	c, err := NewCapacity(queues, route)
	if err != nil {
		panic(err)
	}
	return c
}

var (
	_ mapreduce.Scheduler     = (*Capacity)(nil)
	_ mapreduce.QuietWhenIdle = (*Capacity)(nil)
)

// Name implements mapreduce.Scheduler.
func (c *Capacity) Name() string { return "Capacity" }

// QuietWhenIdle implements mapreduce.QuietWhenIdle: both Assign methods
// return nil on an empty queue before ordering the queues.
func (c *Capacity) QuietWhenIdle() {}

// ResetForRun clears the per-run queue usage counters; queue declarations
// and routing are configuration and stay.
func (c *Capacity) ResetForRun() {
	clear(c.usage)
}

// queueOrder returns queue indices sorted by how far each queue is below
// its guaranteed share (most underserved first); queues over guarantee
// come last (they may still borrow idle slots).
func (c *Capacity) queueOrder(ctx *mapreduce.Context) []int {
	total := float64(ctx.TotalSlots())
	if c.idx == nil {
		c.idx = make([]int, len(c.queues))         //eant:alloc-ok lazy one-time init, amortized across the run
		c.deficit = make([]float64, len(c.queues)) //eant:alloc-ok lazy one-time init, amortized across the run
	}
	idx, deficit := c.idx, c.deficit
	for i := range c.queues {
		idx[i] = i
		deficit[i] = c.queues[i].Share*total - float64(c.usage[i])
	}
	// Stable insertion sort, descending by deficit: queue counts are tiny
	// and this avoids sort.SliceStable's reflection allocations on a path
	// hit once per slot offer.
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && deficit[idx[j]] > deficit[idx[j-1]]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	return idx
}

// assign picks the first runnable job scanning queues in deficit order and
// each queue's jobs FIFO.
func (c *Capacity) assign(ctx *mapreduce.Context, eligible func(*mapreduce.Job) bool) (*mapreduce.Job, int) {
	for _, qi := range c.queueOrder(ctx) {
		for _, j := range ctx.ActiveJobs() {
			if c.route(j) != qi || !eligible(j) {
				continue
			}
			return j, qi
		}
	}
	return nil, -1
}

// AssignMap implements mapreduce.Scheduler.
func (c *Capacity) AssignMap(ctx *mapreduce.Context, m cluster.Machine) *mapreduce.Task {
	if ctx.PendingTasks(mapreduce.MapTask) == 0 {
		return nil
	}
	j, qi := c.assign(ctx, func(j *mapreduce.Job) bool { return j.PendingMaps() > 0 })
	if j == nil {
		return nil
	}
	t := ctx.PopMapPreferLocal(j, m)
	if t != nil {
		c.usage[qi]++
	}
	return t
}

// AssignReduce implements mapreduce.Scheduler.
func (c *Capacity) AssignReduce(ctx *mapreduce.Context, m cluster.Machine) *mapreduce.Task {
	if ctx.ReadyReduceTasks() == 0 {
		return nil
	}
	j, qi := c.assign(ctx, func(j *mapreduce.Job) bool { return ctx.ReduceReady(j) }) //eant:alloc-ok non-escaping predicate, stack-allocated
	if j == nil {
		return nil
	}
	t := ctx.PopReduce(j)
	if t != nil {
		c.usage[qi]++
	}
	return t
}

// OnTaskComplete implements mapreduce.Scheduler: returns the slot to the
// queue's usage accounting.
func (c *Capacity) OnTaskComplete(ctx *mapreduce.Context, t *mapreduce.Task) {
	qi := c.route(t.Job)
	if c.usage[qi] > 0 {
		c.usage[qi]--
	}
}

// OnControlTick implements mapreduce.Scheduler.
func (c *Capacity) OnControlTick(*mapreduce.Context) {}
