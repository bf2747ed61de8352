package mapreduce

import (
	"runtime/debug"
	"slices"
	"testing"
	"time"

	"eant/internal/cluster"
	"eant/internal/sim"
	"eant/internal/workload"
)

// refLocality is the locality index as a Go map of per-machine slices, the
// layout the dense index replaced, and the pending-map queue as a slice
// with a head index, the layout the linked queue replaced, kept as the
// oracle for FuzzLocalityIndex. Their pops, peek, requeue, retry appends
// and failure clears are the replaced code verbatim; they read task states
// from the job under test.
type refLocality struct {
	j            *Job
	localPending map[int][]int
	pendingMaps  []int
	pendingHead  int
}

// newRefLocality builds the reference queues in carve's order.
func newRefLocality(j *Job, blocks [][]int) *refLocality {
	r := &refLocality{j: j, localPending: make(map[int][]int)}
	for i, reps := range blocks {
		r.pendingMaps = append(r.pendingMaps, i)
		for _, machineID := range reps {
			r.localPending[machineID] = append(r.localPending[machineID], i)
		}
	}
	return r
}

func (r *refLocality) popAny() *Task {
	for r.pendingHead < len(r.pendingMaps) {
		idx := r.pendingMaps[r.pendingHead]
		r.pendingHead++
		if t := &r.j.Maps[idx]; t.State == TaskPending {
			return t
		}
	}
	return nil
}

func (r *refLocality) requeue(t *Task) {
	if r.pendingHead > 0 {
		r.pendingHead--
		r.pendingMaps[r.pendingHead] = t.Index
	} else {
		r.pendingMaps = append(r.pendingMaps, t.Index)
	}
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
	r.pendingMaps = append(r.pendingMaps, t.Index)
	for _, machineID := range r.j.mapReplicas(t.Index) {
		r.localPending[int(machineID)] = append(r.localPending[int(machineID)], t.Index)
	}
}

func (r *refLocality) fail() {
	r.pendingHead = len(r.pendingMaps)
	r.localPending = make(map[int][]int)
}

// pendingQueue lists the job's pending-map queue, stale entries included.
func (j *Job) pendingQueue() []int {
	var q []int
	for e := j.mapQ.head; e >= 0; e = j.ar.pending[e].next {
		q = append(q, int(j.ar.pending[e].task))
	}
	return q
}

// localQueue lists machine m's queue in the dense index, stale entries
// included.
func (j *Job) localQueue(m int) []int {
	var q []int
	for e := j.localHead[m]; e >= 0; e = j.ar.local[e].next {
		q = append(q, int(j.ar.local[e].task))
	}
	return q
}

// drawBlocks places maps blocks on a fleet of the given size, each on the
// same number of distinct machines, one to three.
func drawBlocks(rng *sim.RNG, maps, machines int) [][]int {
	stride := 1 + rng.Intn(min(3, machines))
	blocks := make([][]int, maps)
	for b := range blocks {
		blocks[b] = rng.Perm(machines)[:stride]
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

// FuzzLocalityIndex drives the dense locality index and the linked
// pending-map queue, and the slice references, through one generated
// operation sequence on one job: local pops followed by a start or a
// same-heartbeat requeue, FIFO pops likewise, peeks, finishes, failed
// attempts re-queued for retry, job failure, and warm resets onto a new or
// the same placement, which may change the replica count. After every step
// each pop's task, every machine's peek answer and queue contents, and the
// pending queue's contents and count must match the reference.
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
		a := new(arena)
		j := carveJob(a, spec, blocks, machines)
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
				ref.requeue(task)
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
				got, want := j.popAnyMap(), ref.popAny()
				if got != want {
					t.Fatalf("seed %d step %d: popAnyMap() = %s, reference %s", seed, step, taskName(got), taskName(want))
				}
				startOrUndo(got)
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
					j.mapQ.drop()
					j.clearLocal()
					ref.fail()
				}
			case 7:
				op = "warm reset"
				if rng.Intn(4) == 0 {
					if rng.Bernoulli(0.5) {
						blocks = drawBlocks(rng, maps, machines)
					}
					j = carveJob(a, spec, blocks, machines)
					ref = newRefLocality(j, blocks)
				}
			}
			if got, want := j.pendingQueue(), ref.pendingMaps[ref.pendingHead:]; !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d (%s): pending queue %v, reference %v", seed, step, op, got, want)
			}
			if got, want := j.PendingMaps(), len(ref.pendingMaps)-ref.pendingHead; got != want {
				t.Fatalf("seed %d step %d (%s): PendingMaps() = %d, reference %d", seed, step, op, got, want)
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

// TestColdRunAllocsIndependentOfJobSize pins the allocation shape of a
// new driver's first run: the arena, the namespace's replica array and the
// locality index are one array each, however many maps the job has, so a
// job of 1000 maps on 1024 machines allocates as many objects as a job of
// 10. The horizon stops the run before the job is submitted, so only
// construction and the run's set-up are counted. The garbage collector is
// off while it measures: a collection inside AllocsPerRun adds stray
// runtime objects to the average.
func TestColdRunAllocsIndependentOfJobSize(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	fleet := cluster.MustNew(cluster.Group{Spec: cluster.SpecDesktop, Count: 1024})
	allocs := func(maps int) float64 {
		specs := []workload.JobSpec{workload.NewJobSpec(1, workload.Wordcount, workload.BlockMB*float64(maps), 4, time.Hour)}
		return testing.AllocsPerRun(5, func() {
			d, err := NewDriver(fleet, idle{}, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := d.Run(specs, 0); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(10), allocs(1000); large != small {
		t.Errorf("a cold run allocates %v objects for a job of 10 maps and %v for 1000 maps; want the same", small, large)
	}
}

// TestResetForRunAfterRetriesAllocatesNothing checks that a warm carve
// rebuilds the index into the arena's retained arrays, even after a run
// whose retries appended entries and whose pops drained whole queues.
func TestResetForRunAfterRetriesAllocatesNothing(t *testing.T) {
	const maps, machines = 200, 64
	spec := workload.NewJobSpec(1, workload.Grep, workload.BlockMB*maps, 0, 0)
	blocks := spreadBlocks(maps, machines, 3)
	replicas, stride := flatReplicas(blocks)
	a := new(arena)
	j := carveJob(a, spec, blocks, machines)
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
		a.size([]workload.JobSpec{spec}, machines, 1, stride)
		j = a.carve(0, spec, replicas)
	}
	if n := testing.AllocsPerRun(20, run); n != 0 {
		t.Errorf("a run with retries plus a warm carve allocates %v objects, want 0", n)
	}
	ref := newRefLocality(j, blocks)
	for m := 0; m < machines; m++ {
		if got, want := j.localQueue(m), ref.localPending[m]; !slices.Equal(got, want) {
			t.Fatalf("machine %d queue after reset = %v, want %v", m, got, want)
		}
	}
}
