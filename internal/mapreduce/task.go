// Package mapreduce simulates the Hadoop 1.x execution substrate the paper
// modifies: jobs split into map and reduce tasks, TaskTracker slots,
// 3-second heartbeats, multi-wave task execution, the shuffle barrier, and
// task-level CPU/energy reporting. The Driver plays the JobTracker: it owns
// the virtual clock, submits jobs, serves heartbeats through a pluggable
// Scheduler, and accounts energy through the power meter.
package mapreduce

import (
	"fmt"
	"sort"
	"time"

	"eant/internal/cluster"
	"eant/internal/sim"
	"eant/internal/workload"
)

// simEventHandle aliases the engine's cancellable-event handle.
type simEventHandle = sim.EventHandle

// TaskKind distinguishes map from reduce tasks.
type TaskKind int

// Task kinds.
const (
	MapTask TaskKind = iota + 1
	ReduceTask
)

// String returns "map" or "reduce".
func (k TaskKind) String() string {
	switch k {
	case MapTask:
		return "map"
	case ReduceTask:
		return "reduce"
	default:
		return fmt.Sprintf("TaskKind(%d)", int(k))
	}
}

// TaskState is the lifecycle of a task.
type TaskState int

// Task states. Reduce tasks pass through Shuffling before Running when they
// are assigned ahead of the job's map barrier. TaskKilled marks the losing
// attempt of a speculative pair.
const (
	TaskPending TaskState = iota + 1
	TaskShuffling
	TaskRunning
	TaskDone
	TaskKilled
)

// Task is one map or reduce attempt. Speculative execution (the LATE
// scheduler) clones a straggling attempt; the original and the clone are
// linked, the first to finish wins, and the driver kills the other.
type Task struct {
	Job   *Job
	Index int
	Kind  TaskKind

	// InputMB is split input for maps, shuffle volume for reduces.
	InputMB float64

	State   TaskState
	Machine cluster.Machine
	Local   bool // map read its block from local disk

	Start  time.Duration
	Finish time.Duration
	// computeStart is when the compute phase began: Start for maps, the
	// shuffle→compute transition for reduces. Straggler detection
	// measures from here so barrier waits don't look like slowness.
	computeStart time.Duration

	// shuffleSecs/computeSecs decompose a reduce's service time; maps use
	// computeSecs only. Set at assignment.
	shuffleSecs float64
	computeSecs float64

	// trueUtil is the whole-machine CPU share the task occupies while in
	// its compute phase; shuffleUtil during the shuffle phase.
	trueUtil    float64
	shuffleUtil float64

	// EstJoules is the Eq. 2 energy estimate reported on completion.
	// TrueJoules is the noise-free marginal energy (idle share + dynamic),
	// kept for accuracy experiments.
	EstJoules  float64
	TrueJoules float64

	// original links a speculative clone back to the straggling attempt
	// it races; clone links the original forward. pendingEvent is the
	// task's next scheduled event (phase change or completion), cancelled
	// when the task loses the race.
	original     *Task
	clone        *Task
	pendingEvent simEventHandle
	// flightPos is the attempt's index in Job.inFlight while it runs.
	flightPos int

	// failures counts this logical task's failed attempts (fault
	// injection); kept on the canonical task, never on clones. doomed
	// marks an attempt the fault model has decided will fail mid-flight.
	failures int
	doomed   bool
}

// ComputeStart returns when the attempt's compute phase began.
func (t *Task) ComputeStart() time.Duration { return t.computeStart }

// Speculative reports whether the task is a speculative clone.
func (t *Task) Speculative() bool { return t.original != nil }

// HasClone reports whether a speculative copy of this task is in flight.
func (t *Task) HasClone() bool { return t.clone != nil }

// Failures returns how many attempts of this logical task have failed.
func (t *Task) Failures() int { return t.failures }

// resetForRetry returns a finished, killed or crashed task to the pending
// state so it can be assigned again. Race links must be dissolved first.
func (t *Task) resetForRetry() {
	if t.clone != nil || t.original != nil {
		panic(fmt.Sprintf("mapreduce: retry of %s with live race link", t.ID()))
	}
	t.State = TaskPending
	t.Machine = cluster.Machine{}
	t.Local = false
	t.Start = 0
	t.Finish = 0
	t.computeStart = 0
	t.shuffleSecs = 0
	t.computeSecs = 0
	t.trueUtil = 0
	t.shuffleUtil = 0
	t.EstJoules = 0
	t.TrueJoules = 0
	t.doomed = false
	t.pendingEvent = simEventHandle{}
}

// ID returns a stable task identifier: "job3/map/17".
func (t *Task) ID() string {
	return fmt.Sprintf("job%d/%s/%d", t.Job.Spec.ID, t.Kind, t.Index) //eant:alloc-ok diagnostic identifier, built on retry/trace paths only
}

// Duration returns the task's total service time; valid once done.
func (t *Task) Duration() time.Duration { return t.Finish - t.Start }

// currentUtil returns the machine share the task contributes in the given
// state.
func (t *Task) currentUtil(st TaskState) float64 {
	if st == TaskShuffling {
		return t.shuffleUtil
	}
	return t.trueUtil
}

// Job is a submitted MapReduce job with its task lists and progress
// counters.
type Job struct {
	Spec workload.JobSpec

	// Maps and Reduces hold the job's tasks by value, sized once at
	// construction and never resized, so &Maps[i] is stable for the job's
	// lifetime (speculative clones are separate allocations).
	Maps    []Task
	Reduces []Task

	Submitted time.Duration
	// FirstStart is when the first task began executing.
	FirstStart time.Duration
	// MapsDoneAt is when the last map finished (the shuffle barrier).
	MapsDoneAt time.Duration
	// LastShuffleEnd is when the last reduce finished its shuffle phase.
	LastShuffleEnd time.Duration
	// Finished is when the last task completed.
	Finished time.Duration

	mapsDone    int
	reducesDone int
	started     bool
	done        bool
	failed      bool

	// pendingMaps is a FIFO of map indices not yet assigned; head advances
	// past assigned entries lazily.
	pendingMaps []int
	pendingHead int
	// The locality index queues, per machine, the pending maps with a
	// replica there: localHead[m] and localTail[m] are the first and last
	// entry of machine m's linked queue in local, -1 when it is empty.
	// buildLocal lays each machine's initial queue out contiguously in map
	// order; retried maps are appended and linked from the tail. Entries go
	// stale when a task is assigned elsewhere; readers skip non-pending
	// tasks.
	localHead []int32
	localTail []int32
	local     []localEntry
	// pendingReduces is a FIFO of reduce indices not yet assigned.
	pendingReduces []int
	reduceHead     int
	// mapReplicas aliases the input file's per-block replica lists so
	// retried tasks re-enter the locality index (the data survives a
	// TaskTracker crash on the other replicas). Only a later run's
	// placement rewrites the file, and that run rebuilds or resets the job.
	mapReplicas [][]int

	// inFlight lists the in-flight attempts (originals and speculative
	// clones) for the speculation and crash scans, in no particular order:
	// both impose their own total order. Each attempt's flightPos is its
	// index here, so removal swaps the last entry into its place.
	inFlight []*Task

	// reduceGateOpen caches whether MapProgress has passed the slowstart
	// threshold, so the ready-pending-reduce aggregate knows which jobs'
	// pending reduces count as schedulable. Synced by Driver.syncReduceGate
	// at submit, map completion, and lost-map re-execution (progress can
	// move backwards).
	reduceGateOpen bool
	// reduceEst is EstimateReduceSeconds per machine type (TypeSpecs
	// order), filled at submission: shuffle volume and profile are fixed
	// by the spec.
	reduceEst []float64
}

// localEntry is one link of a locality queue: a map index and the next
// entry of the same machine's queue in Job.local, or -1.
type localEntry struct {
	task, next int32
}

// newJob materializes tasks for a spec on a fleet of the given size with
// the given number of machine types: it allocates the job's storage and
// resets it for a run. blocks lists each map's block replica locations
// (the HDFS file's Blocks), which the job aliases.
func newJob(spec workload.JobSpec, blocks [][]int, machines, types int) *Job {
	j := &Job{
		Spec:           spec,
		Maps:           make([]Task, spec.NumMaps),
		Reduces:        make([]Task, spec.NumReduces),
		pendingMaps:    make([]int, 0, spec.NumMaps),
		pendingReduces: make([]int, 0, spec.NumReduces),
		localHead:      make([]int32, machines),
		localTail:      make([]int32, machines),
		reduceEst:      make([]float64, types),
	}
	j.resetForRun(blocks)
	return j
}

// buildLocal rebuilds the locality index from blocks into the retained
// arrays. A counting pass sizes each machine's queue, a prefix sum turns
// the counts into offsets, and one fill in map order links every entry to
// its successor, so machine m's queue is the contiguous run
// local[localHead[m]..localTail[m]].
func (j *Job) buildLocal(blocks [][]int) {
	head, tail := j.localHead, j.localTail
	clear(head)
	total := 0
	for _, reps := range blocks {
		total += len(reps)
		for _, m := range reps {
			head[m]++
		}
	}
	off := int32(0)
	for m, n := range head {
		head[m] = off
		off += n
	}
	copy(tail, head)
	if cap(j.local) < total {
		j.local = make([]localEntry, total)
	}
	j.local = j.local[:total]
	for i, reps := range blocks {
		for _, m := range reps {
			e := tail[m]
			j.local[e] = localEntry{task: int32(i), next: e + 1}
			tail[m] = e + 1
		}
	}
	// tail[m] now ends machine m's run: close it, or mark it empty.
	for m := range head {
		if tail[m] == head[m] {
			head[m], tail[m] = -1, -1
			continue
		}
		tail[m]--
		j.local[tail[m]].next = -1
	}
}

// pushLocal appends map i to machine m's locality queue.
func (j *Job) pushLocal(m, i int) {
	e := int32(len(j.local))
	j.local = append(j.local, localEntry{task: int32(i), next: -1})
	if t := j.localTail[m]; t < 0 {
		j.localHead[m] = e
	} else {
		j.local[t].next = e
	}
	j.localTail[m] = e
}

// clearLocal empties every machine's locality queue in place.
func (j *Job) clearLocal() {
	for m := range j.localHead {
		j.localHead[m], j.localTail[m] = -1, -1
	}
}

// Done reports whether every task has completed.
func (j *Job) Done() bool { return j.done }

// Failed reports whether the job was failed (a task exhausted its retry
// budget under fault injection).
func (j *Job) Failed() bool { return j.failed }

// MapsDone reports whether the map phase is complete (shuffle barrier
// lifted).
func (j *Job) MapsDone() bool { return j.mapsDone == len(j.Maps) }

// MapProgress returns the completed-map fraction in [0, 1].
func (j *Job) MapProgress() float64 {
	if len(j.Maps) == 0 {
		return 1
	}
	return float64(j.mapsDone) / float64(len(j.Maps))
}

// PendingMaps returns the number of unassigned map tasks.
func (j *Job) PendingMaps() int { return len(j.pendingMaps) - j.pendingHead }

// PendingReduces returns the number of unassigned reduce tasks.
func (j *Job) PendingReduces() int { return len(j.pendingReduces) - j.reduceHead }

// Running returns the number of currently executing tasks.
func (j *Job) Running() int { return len(j.inFlight) }

// addInFlight lists a started attempt.
func (j *Job) addInFlight(t *Task) {
	t.flightPos = len(j.inFlight)
	j.inFlight = append(j.inFlight, t)
}

// removeInFlight unlists a finished or detached attempt.
func (j *Job) removeInFlight(t *Task) {
	last := len(j.inFlight) - 1
	moved := j.inFlight[last]
	j.inFlight[t.flightPos] = moved
	moved.flightPos = t.flightPos
	j.inFlight[last] = nil
	j.inFlight = j.inFlight[:last]
}

// popLocalMap removes and returns a pending map task with a replica on
// machineID, or nil. It drops the returned entry and every stale entry
// before it; a queue with no pending entry is emptied.
func (j *Job) popLocalMap(machineID int) *Task {
	for e := j.localHead[machineID]; e >= 0; {
		ent := j.local[e]
		e = ent.next
		if t := &j.Maps[ent.task]; t.State == TaskPending {
			j.localHead[machineID] = e
			if e < 0 {
				j.localTail[machineID] = -1
			}
			return t
		}
	}
	if j.localHead[machineID] >= 0 {
		j.localHead[machineID], j.localTail[machineID] = -1, -1
	}
	return nil
}

// popAnyMap removes and returns the oldest pending map task, or nil.
func (j *Job) popAnyMap() *Task {
	for j.pendingHead < len(j.pendingMaps) {
		idx := j.pendingMaps[j.pendingHead]
		j.pendingHead++
		if t := &j.Maps[idx]; t.State == TaskPending {
			return t
		}
	}
	return nil
}

// peekPendingLocalMap reports whether a pending map task has a replica on
// machineID. It drops nothing: a stale entry turns pending again when its
// map is retried, and the next pop must find it there, ahead of the
// retry's appended entry.
func (j *Job) peekPendingLocalMap(machineID int) bool {
	for e := j.localHead[machineID]; e >= 0; e = j.local[e].next {
		if j.Maps[j.local[e].task].State == TaskPending {
			return true
		}
	}
	return false
}

// popReduce removes and returns the next pending reduce task, or nil.
func (j *Job) popReduce() *Task {
	for j.reduceHead < len(j.pendingReduces) {
		idx := j.pendingReduces[j.reduceHead]
		j.reduceHead++
		if t := &j.Reduces[idx]; t.State == TaskPending {
			return t
		}
	}
	return nil
}

// RunningAttempts returns the job's in-flight attempts of one kind,
// ordered by (task index, speculative flag) for deterministic iteration.
func (j *Job) RunningAttempts(kind TaskKind) []*Task {
	out := make([]*Task, 0, len(j.inFlight)) //eant:alloc-ok speculation/recovery scan, per control tick at most
	for _, t := range j.inFlight {
		if t.Kind == kind {
			out = append(out, t)
		}
	}
	sort.Slice(out, func(a, b int) bool { //eant:alloc-ok speculation/recovery scan, per control tick at most
		if out[a].Index != out[b].Index {
			return out[a].Index < out[b].Index
		}
		return !out[a].Speculative() && out[b].Speculative()
	})
	return out
}

// requeueRetry returns a reset task to the pending pools after an attempt
// failure, machine crash, or lost map output. Unlike requeue (which undoes
// a same-heartbeat pop), retried maps also re-enter the locality index:
// their input block still has replicas on the surviving machines.
func (j *Job) requeueRetry(t *Task) {
	if t.State != TaskPending {
		panic(fmt.Sprintf("mapreduce: retry requeue of %s in state %d", t.ID(), t.State))
	}
	if t.Kind == MapTask {
		j.pendingMaps = append(j.pendingMaps, t.Index)
		for _, machineID := range j.mapReplicas[t.Index] {
			j.pushLocal(machineID, t.Index)
		}
	} else {
		j.pendingReduces = append(j.pendingReduces, t.Index)
	}
}

// requeue returns a popped task to its pending pool (a scheduler chose a
// job but then declined the assignment).
func (j *Job) requeue(t *Task) {
	if t.State != TaskPending {
		panic(fmt.Sprintf("mapreduce: requeue of %s in state %d", t.ID(), t.State))
	}
	if t.Kind == MapTask {
		// Prepend by resetting head if possible, else append.
		if j.pendingHead > 0 {
			j.pendingHead--
			j.pendingMaps[j.pendingHead] = t.Index
		} else {
			j.pendingMaps = append(j.pendingMaps, t.Index)
		}
	} else {
		if j.reduceHead > 0 {
			j.reduceHead--
			j.pendingReduces[j.reduceHead] = t.Index
		} else {
			j.pendingReduces = append(j.pendingReduces, t.Index)
		}
	}
}
