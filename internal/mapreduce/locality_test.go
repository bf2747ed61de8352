package mapreduce

import (
	"slices"
	"testing"

	"eant/internal/sim"
	"eant/internal/workload"
)

// refLocality is the locality index as a Go map of per-machine slices, the
// layout the dense index replaced, kept as the oracle for
// FuzzLocalityIndex. Its pop, peek, retry append and failure clear are the
// replaced code verbatim; it reads task states from the job under test.
type refLocality struct {
	j            *Job
	localPending map[int][]int
}

// newRefLocality builds the reference queues in newJob's order.
func newRefLocality(j *Job, blocks [][]int) *refLocality {
	r := &refLocality{j: j, localPending: make(map[int][]int)}
	for i, reps := range blocks {
		for _, machineID := range reps {
			r.localPending[machineID] = append(r.localPending[machineID], i)
		}
	}
	return r
}

func (r *refLocality) pop(machineID int) *Task {
	queue := r.localPending[machineID]
	if len(queue) == 0 {
		return nil
	}
	for len(queue) > 0 {
		idx := queue[0]
		queue = queue[1:]
		if t := &r.j.Maps[idx]; t.State == TaskPending {
			r.localPending[machineID] = queue
			return t
		}
	}
	r.localPending[machineID] = nil
	return nil
}

func (r *refLocality) peek(machineID int) bool {
	queue := r.localPending[machineID]
	for _, idx := range queue {
		if r.j.Maps[idx].State == TaskPending {
			return true
		}
	}
	return false
}

func (r *refLocality) retry(t *Task) {
	for _, machineID := range r.j.mapReplicas[t.Index] {
		r.localPending[machineID] = append(r.localPending[machineID], t.Index)
	}
}

func (r *refLocality) fail() { r.localPending = make(map[int][]int) }

// localQueue lists machine m's queue in the dense index, stale entries
// included.
func (j *Job) localQueue(m int) []int {
	var q []int
	for e := j.localHead[m]; e >= 0; e = j.local[e].next {
		q = append(q, int(j.local[e].task))
	}
	return q
}

// drawBlocks places maps blocks on a fleet of the given size, each on one
// to three distinct machines.
func drawBlocks(rng *sim.RNG, maps, machines int) [][]int {
	blocks := make([][]int, maps)
	for b := range blocks {
		blocks[b] = rng.Perm(machines)[:1+rng.Intn(min(3, machines))]
	}
	return blocks
}

// taskName formats a popped task for a mismatch report.
func taskName(t *Task) string {
	if t == nil {
		return "nil"
	}
	return t.ID()
}

// FuzzLocalityIndex drives the dense locality index and the map-of-slices
// reference through one generated operation sequence on one job: local
// pops followed by a start or a same-heartbeat requeue, FIFO pops,
// peeks, finishes, failed attempts re-queued for retry, job failure, and
// warm resets onto a new or the same placement. After every step each
// pop's task and every machine's peek answer and queue contents must
// match the reference.
func FuzzLocalityIndex(f *testing.F) {
	for _, seed := range []int64{1, 7, 11, -3, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := sim.NewRNG(seed)
		machines := 1 + rng.Intn(64)
		maps := 1 + rng.Intn(200)
		spec := workload.JobSpec{ID: 1, App: workload.Grep, InputMB: workload.BlockMB * float64(maps), NumMaps: maps}
		blocks := drawBlocks(rng, maps, machines)
		j := newJob(spec, blocks, machines, 1)
		ref := newRefLocality(j, blocks)

		// pick returns a random map in one of the given states, or nil.
		pick := func(states ...TaskState) *Task {
			var from []*Task
			for i := range j.Maps {
				if slices.Contains(states, j.Maps[i].State) {
					from = append(from, &j.Maps[i])
				}
			}
			if len(from) == 0 {
				return nil
			}
			return from[rng.Intn(len(from))]
		}
		// startOrUndo starts a popped map or undoes the pop.
		startOrUndo := func(task *Task) {
			if task == nil {
				return
			}
			if rng.Bernoulli(0.5) {
				task.State = TaskRunning
			} else {
				j.requeue(task)
			}
		}

		steps := 1 + rng.Intn(400)
		for step := 0; step < steps; step++ {
			m := rng.Intn(machines)
			var op string
			switch rng.Intn(8) {
			case 0, 1:
				op = "local pop"
				got, want := j.popLocalMap(m), ref.pop(m)
				if got != want {
					t.Fatalf("seed %d step %d: popLocalMap(%d) = %s, reference %s", seed, step, m, taskName(got), taskName(want))
				}
				startOrUndo(got)
			case 2:
				op = "FIFO pop"
				startOrUndo(j.popAnyMap())
			case 3:
				op = "finish"
				if task := pick(TaskRunning); task != nil {
					task.State = TaskDone
				}
			case 4, 5:
				op = "retry"
				if task := pick(TaskRunning, TaskDone); task != nil {
					task.resetForRetry()
					j.requeueRetry(task)
					ref.retry(task)
				}
			case 6:
				op = "job failure"
				if rng.Intn(4) == 0 {
					for i := range j.Maps {
						if j.Maps[i].State == TaskRunning {
							j.Maps[i].State = TaskKilled
						}
					}
					j.pendingHead = len(j.pendingMaps)
					j.clearLocal()
					ref.fail()
				}
			case 7:
				op = "warm reset"
				if rng.Intn(4) == 0 {
					if rng.Bernoulli(0.5) {
						blocks = drawBlocks(rng, maps, machines)
					}
					j.resetForRun(blocks)
					ref = newRefLocality(j, blocks)
				}
			}
			for id := 0; id < machines; id++ {
				if got, want := j.peekPendingLocalMap(id), ref.peek(id); got != want {
					t.Fatalf("seed %d step %d (%s): peekPendingLocalMap(%d) = %v, reference %v", seed, step, op, id, got, want)
				}
				if got, want := j.localQueue(id), ref.localPending[id]; !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d (%s): machine %d queue %v, reference %v", seed, step, op, id, got, want)
				}
			}
		}
	})
}

// spreadBlocks places block b on machines b, b+1, ..., b+reps-1 (mod
// machines).
func spreadBlocks(maps, machines, reps int) [][]int {
	blocks := make([][]int, maps)
	for b := range blocks {
		for r := 0; r < reps; r++ {
			blocks[b] = append(blocks[b], (b+r)%machines)
		}
	}
	return blocks
}

// TestNewJobAllocsIndependentOfSize pins newJob's allocation shape: the
// locality index is two fleet-sized arrays and one replica-sized array,
// so a job of 1000 maps allocates as many objects as a job of 10.
func TestNewJobAllocsIndependentOfSize(t *testing.T) {
	const machines = 1024
	allocs := func(maps int) float64 {
		spec := workload.NewJobSpec(1, workload.Wordcount, workload.BlockMB*float64(maps), 4, 0)
		blocks := spreadBlocks(maps, machines, 3)
		return testing.AllocsPerRun(20, func() { newJob(spec, blocks, machines, 7) })
	}
	small, large := allocs(10), allocs(1000)
	if large != small || large > 10 {
		t.Errorf("newJob allocates %v objects for 10 maps and %v for 1000 maps over %d machines; want the same, at most 10",
			small, large, machines)
	}
}

// TestResetForRunAfterRetriesAllocatesNothing checks that a warm reset
// rebuilds the index into its retained arrays, even after a run whose
// retries appended entries and whose pops drained whole queues.
func TestResetForRunAfterRetriesAllocatesNothing(t *testing.T) {
	const maps, machines = 200, 64
	spec := workload.NewJobSpec(1, workload.Grep, workload.BlockMB*maps, 0, 0)
	blocks := spreadBlocks(maps, machines, 3)
	j := newJob(spec, blocks, machines, 1)
	run := func() {
		for m := 0; m < machines; m++ {
			for task := j.popLocalMap(m); task != nil; task = j.popLocalMap(m) {
				task.State = TaskRunning
			}
		}
		for i := 0; i < maps; i += 5 {
			j.Maps[i].resetForRetry()
			j.requeueRetry(&j.Maps[i])
		}
		j.resetForRun(blocks)
	}
	if n := testing.AllocsPerRun(20, run); n != 0 {
		t.Errorf("a run with retries plus a warm resetForRun allocates %v objects, want 0", n)
	}
	ref := newRefLocality(j, blocks)
	for m := 0; m < machines; m++ {
		if got, want := j.localQueue(m), ref.localPending[m]; !slices.Equal(got, want) {
			t.Fatalf("machine %d queue after reset = %v, want %v", m, got, want)
		}
	}
}
