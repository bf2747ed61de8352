package mapreduce

import "eant/internal/workload"

// arena is a driver's retained job storage. Driver.Run carves every job
// of a mix out of it: the job's tasks, its windows of the locality heads
// and tails and of the reduce estimates, and its first entries in the two
// shared entry arrays. An array grows only when a mix needs more than it
// holds, and then to exactly what the mix needs, so the arena keeps the
// largest mix its driver has run and no more. Each job's windows are
// clipped, so no append can run into the next job's. Retries and requeues
// append to the shared entry arrays, which every job links into by int32
// index; their capacity is kept too, so a warm run allocates nothing for
// them once a run has grown them.
type arena struct {
	jobs  []Job
	tasks []Task
	// heads and tails hold the jobs' locality queue ends, machines per
	// job; reduceEst holds their reduce estimates, types per job.
	heads, tails []int32
	reduceEst    []float64
	// local holds the locality queues' entries and pending the pending
	// queues'.
	local, pending []queueEntry

	// The current mix's layout, set by size; carve advances nextTask.
	machines, types, stride int
	nextTask                int
}

// queueEntry is one link of a queue in an arena entry array: a task index
// and the next entry of the same queue, or -1.
type queueEntry struct {
	task, next int32
}

// fifo is one of a job's pending queues: task indices linked through the
// arena's pending entries, head to tail, -1 when empty. It is lazy like
// the locality queues: pops skip entries whose task is no longer pending,
// and n counts the entries not yet popped, stale ones included. popped
// counts the entries popped and not since given back by a requeue; a
// requeue puts its task first only while there is one, as a queue in an
// array would reuse the slot before its head.
type fifo struct {
	head, tail int32
	n, popped  int32
}

// size lays the arena out for a mix of specs on a fleet of machines with
// types machine types, whose inputs have stride replicas per block. It
// grows what is too small for the mix and zeroes the tasks; carve then
// fills in each job in spec order.
func (a *arena) size(specs []workload.JobSpec, machines, types, stride int) {
	maps, tasks := 0, 0
	for i := range specs {
		maps += specs[i].NumMaps
		tasks += specs[i].NumMaps + specs[i].NumReduces
	}
	n := len(specs)
	if cap(a.jobs) < n {
		// Each job slot keeps its in-flight list's storage.
		jobs := make([]Job, n)
		copy(jobs, a.jobs[:cap(a.jobs)])
		a.jobs = jobs
	}
	a.jobs = a.jobs[:n]
	a.tasks = fit(a.tasks, tasks)
	clear(a.tasks)
	a.heads = fit(a.heads, n*machines)
	a.tails = fit(a.tails, n*machines)
	a.reduceEst = fit(a.reduceEst, n*types)
	clear(a.reduceEst)
	a.local = fit(a.local, maps*stride)[:0]
	a.pending = fit(a.pending, tasks)[:0]
	a.machines, a.types, a.stride = machines, types, stride
	a.nextTask = 0
}

// fit returns s with length n, in a new array of exactly n if s's is
// smaller.
func fit[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// window returns the i-th of the consecutive n-long windows of s, clipped.
func window[T any](s []T, i, n int) []T {
	return s[i*n : (i+1)*n : (i+1)*n]
}

// carve lays out job i of the sized mix, whose input file holds replicas
// (stride IDs per map), in the state its spec starts a run in, and
// returns it. The literal names only the job's storage and its slot i, so
// every other field, progress and timestamps included, starts at zero. Stale
// pendingEvent handles on the zeroed tasks are inert — the engine reset
// bumped their generation — and speculative clones (separate allocations)
// are dropped with the cleared in-flight list. The reduce estimates are
// tabulated at submission.
func (a *arena) carve(i int, spec workload.JobSpec, replicas []int32) *Job {
	j := &a.jobs[i]
	first := a.nextTask
	mid, end := first+spec.NumMaps, first+spec.NumMaps+spec.NumReduces
	a.nextTask = end
	clear(j.inFlight)
	*j = Job{
		Spec:      spec,
		Maps:      a.tasks[first:mid:mid],
		Reduces:   a.tasks[mid:end:end],
		ar:        a,
		slot:      i,
		localHead: window(a.heads, i, a.machines),
		localTail: window(a.tails, i, a.machines),
		replicas:  replicas,
		inFlight:  j.inFlight[:0],
		reduceEst: window(a.reduceEst, i, a.types),
	}
	for k := range j.Maps {
		t := &j.Maps[k]
		t.Job, t.Index, t.Kind, t.State = j, k, MapTask, TaskPending
		t.InputMB = spec.MapInputMB(k)
	}
	shuffleMB := spec.ShuffleMBPerReduce()
	for k := range j.Reduces {
		t := &j.Reduces[k]
		t.Job, t.Index, t.Kind, t.State = j, k, ReduceTask, TaskPending
		t.InputMB = shuffleMB
	}
	j.mapQ = a.queue(len(j.Maps))
	j.reduceQ = a.queue(len(j.Reduces))
	j.buildLocal()
	return j
}

// queue appends the pending queue of task indices 0..n-1 to the pending
// entries, which have room for it, and returns it.
func (a *arena) queue(n int) fifo {
	if n == 0 {
		return fifo{head: -1, tail: -1}
	}
	first := int32(len(a.pending))
	for k := range int32(n) {
		a.pending = append(a.pending, queueEntry{task: k, next: first + k + 1})
	}
	last := int32(len(a.pending) - 1)
	a.pending[last].next = -1
	return fifo{head: first, tail: last, n: int32(n)}
}

// pop removes the head entry and returns its task index, or false when
// the queue is empty.
func (q *fifo) pop(entries []queueEntry) (int, bool) {
	if q.head < 0 {
		return 0, false
	}
	ent := entries[q.head]
	q.head = ent.next
	if q.head < 0 {
		q.tail = -1
	}
	q.n--
	q.popped++
	return int(ent.task), true
}

// push appends task i in a new entry.
func (q *fifo) push(entries *[]queueEntry, i int) {
	e := int32(len(*entries))
	*entries = append(*entries, queueEntry{task: int32(i), next: -1})
	if q.tail < 0 {
		q.head = e
	} else {
		(*entries)[q.tail].next = e
	}
	q.tail = e
	q.n++
}

// requeue gives back a popped task i: first in the queue while a popped
// entry is outstanding, else last.
func (q *fifo) requeue(entries *[]queueEntry, i int) {
	if q.popped == 0 {
		q.push(entries, i)
		return
	}
	e := int32(len(*entries))
	*entries = append(*entries, queueEntry{task: int32(i), next: q.head})
	if q.head < 0 {
		q.tail = e
	}
	q.head = e
	q.n++
	q.popped--
}

// drop pops every entry at once (job failure).
func (q *fifo) drop() {
	q.popped += q.n
	q.n = 0
	q.head, q.tail = -1, -1
}
