package mapreduce

import (
	"testing"

	"eant/internal/workload"
)

func replicasAll(machines int) func(int) []int {
	ids := make([]int, machines)
	for i := range ids {
		ids[i] = i
	}
	return func(int) []int { return ids }
}

func TestTaskKindString(t *testing.T) {
	if MapTask.String() != "map" || ReduceTask.String() != "reduce" {
		t.Error("TaskKind.String mismatch")
	}
	if TaskKind(9).String() != "TaskKind(9)" {
		t.Error("unknown kind string mismatch")
	}
}

func TestNewJobMaterializesTasks(t *testing.T) {
	spec := workload.NewJobSpec(1, workload.Wordcount, 320, 3, 0) // 5 maps
	j := newJob(spec, replicasAll(2), 1)
	if len(j.Maps) != 5 || len(j.Reduces) != 3 {
		t.Fatalf("tasks = %d maps, %d reduces; want 5, 3", len(j.Maps), len(j.Reduces))
	}
	if j.PendingMaps() != 5 || j.PendingReduces() != 3 {
		t.Error("pending counts wrong at creation")
	}
	if j.MapProgress() != 0 {
		t.Error("map progress should start at 0")
	}
	for i, task := range j.Maps {
		if task.Index != i || task.Kind != MapTask || task.State != TaskPending {
			t.Fatalf("map %d misconstructed: %+v", i, task)
		}
	}
	if j.Maps[0].InputMB != 64 {
		t.Errorf("map input = %v, want 64", j.Maps[0].InputMB)
	}
}

func TestPopLocalMapSkipsStaleEntries(t *testing.T) {
	spec := workload.NewJobSpec(1, workload.Grep, 192, 0, 0) // 3 maps
	j := newJob(spec, replicasAll(1), 1)
	// Assign task 0 via popAnyMap, making machine 0's local entry stale.
	first := j.popAnyMap()
	first.State = TaskRunning
	local := j.popLocalMap(0)
	if local == nil || local.Index == first.Index {
		t.Fatalf("popLocalMap returned %v, want a fresh pending task", local)
	}
}

func TestRemotePopLeavesNoLocalityEntry(t *testing.T) {
	spec := workload.NewJobSpec(1, workload.Grep, 128, 0, 0) // 2 maps
	j := newJob(spec, func(int) []int { return []int{2} }, 1)
	if j.popLocalMap(0) != nil {
		t.Fatal("popLocalMap found a local task on a machine without replicas")
	}
	if _, ok := j.localPending[0]; ok || len(j.localPending) != 1 {
		t.Errorf("locality index has keys %v after a remote pop, want only machine 2", j.localPending)
	}
}

func TestPopAnyMapExhausts(t *testing.T) {
	spec := workload.NewJobSpec(1, workload.Grep, 128, 0, 0) // 2 maps
	j := newJob(spec, replicasAll(1), 1)
	a, b := j.popAnyMap(), j.popAnyMap()
	if a == nil || b == nil || a == b {
		t.Fatal("popAnyMap did not return distinct tasks")
	}
	if j.popAnyMap() != nil {
		t.Error("popAnyMap returned task from empty queue")
	}
	if j.PendingMaps() != 0 {
		t.Errorf("PendingMaps = %d after exhausting", j.PendingMaps())
	}
}

func TestPeekPendingLocalMap(t *testing.T) {
	spec := workload.NewJobSpec(1, workload.Grep, 64, 0, 0)
	j := newJob(spec, func(int) []int { return []int{2} }, 1)
	if !j.peekPendingLocalMap(2) {
		t.Error("peek missed local pending task")
	}
	if j.peekPendingLocalMap(0) {
		t.Error("peek found local task on machine without replica")
	}
	j.Maps[0].State = TaskRunning
	if j.peekPendingLocalMap(2) {
		t.Error("peek found task that is no longer pending")
	}
}

func TestRequeueRestoresTask(t *testing.T) {
	spec := workload.NewJobSpec(1, workload.Terasort, 128, 2, 0)
	j := newJob(spec, replicasAll(1), 1)
	task := j.popAnyMap()
	if j.PendingMaps() != 1 {
		t.Fatal("pop did not consume")
	}
	j.requeue(task)
	if j.PendingMaps() != 2 {
		t.Error("requeue did not restore map")
	}
	r := j.popReduce()
	j.requeue(r)
	if j.PendingReduces() != 2 {
		t.Error("requeue did not restore reduce")
	}
}

func TestRequeueNonPendingPanics(t *testing.T) {
	spec := workload.NewJobSpec(1, workload.Grep, 64, 0, 0)
	j := newJob(spec, replicasAll(1), 1)
	task := j.popAnyMap()
	task.State = TaskRunning
	defer func() {
		if recover() == nil {
			t.Error("requeue of running task did not panic")
		}
	}()
	j.requeue(task)
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	bad := DefaultConfig()
	bad.Slowstart = 1.5
	if err := bad.Validate(); err == nil {
		t.Error("slowstart > 1 accepted")
	}
	bad = DefaultConfig()
	bad.ForcedLocalFraction = 2
	if err := bad.Validate(); err == nil {
		t.Error("forced local fraction > 1 accepted")
	}
}

func TestJobResultPhaseSpans(t *testing.T) {
	r := JobResult{
		Submitted:      0,
		FirstStart:     10e9,
		MapsDoneAt:     70e9,
		LastShuffleEnd: 100e9,
		Finished:       130e9,
	}
	if got := r.MapSeconds(); got != 60 {
		t.Errorf("MapSeconds = %v, want 60", got)
	}
	if got := r.ShuffleSeconds(); got != 30 {
		t.Errorf("ShuffleSeconds = %v, want 30", got)
	}
	if got := r.ReduceSeconds(); got != 30 {
		t.Errorf("ReduceSeconds = %v, want 30", got)
	}
	if got := r.CompletionTime(); got.Seconds() != 130 {
		t.Errorf("CompletionTime = %v, want 130s", got)
	}
}
