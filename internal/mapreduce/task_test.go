package mapreduce

import (
	"math"
	"slices"
	"testing"

	"eant/internal/workload"
)

// replicasAll places every one of maps blocks on each of machines.
func replicasAll(maps, machines int) [][]int {
	ids := make([]int, machines)
	for i := range ids {
		ids[i] = i
	}
	return replicasOn(maps, ids...)
}

// replicasOn places every one of maps blocks on the given machines.
func replicasOn(maps int, ids ...int) [][]int {
	blocks := make([][]int, maps)
	for b := range blocks {
		blocks[b] = ids
	}
	return blocks
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
	j := newJob(spec, replicasAll(5, 2), 2, 1)
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
	j := newJob(spec, replicasAll(3, 1), 1, 1)
	// Assign task 0 via popAnyMap, making machine 0's local entry stale.
	first := j.popAnyMap()
	first.State = TaskRunning
	local := j.popLocalMap(0)
	if local == nil || local.Index == first.Index {
		t.Fatalf("popLocalMap returned %v, want a fresh pending task", local)
	}
}

// TestRemotePopLeavesNoLocalityEntry checks that a pop on a machine with
// no replicas neither finds a task nor disturbs the machines that have
// them.
func TestRemotePopLeavesNoLocalityEntry(t *testing.T) {
	spec := workload.NewJobSpec(1, workload.Grep, 128, 0, 0) // 2 maps
	j := newJob(spec, replicasOn(2, 2), 3, 1)
	if j.popLocalMap(0) != nil {
		t.Fatal("popLocalMap found a local task on a machine without replicas")
	}
	for want := range 2 {
		if got := j.popLocalMap(2); got == nil || got.Index != want {
			t.Fatalf("pop %d on machine 2 returned %v, want map %d", want, got, want)
		}
	}
	if got := j.popLocalMap(0); got != nil {
		t.Errorf("machine 0 yielded map %d after the remote pop, want nil", got.Index)
	}
}

func TestPopAnyMapExhausts(t *testing.T) {
	spec := workload.NewJobSpec(1, workload.Grep, 128, 0, 0) // 2 maps
	j := newJob(spec, replicasAll(2, 1), 1, 1)
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
	j := newJob(spec, replicasOn(1, 2), 3, 1)
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

// TestAppendRunningAttempts checks the speculation scan's contract: the
// appended attempts are sorted by task index with an original before its
// clone, the prefix of dst is left as it was, and attempts of the other
// kind are excluded.
func TestAppendRunningAttempts(t *testing.T) {
	spec := workload.NewJobSpec(1, workload.Terasort, 256, 2, 0) // 4 maps
	j := newJob(spec, replicasAll(4, 1), 1, 1)
	clone := func(orig *Task) *Task {
		return &Task{Job: j, Index: orig.Index, Kind: orig.Kind, original: orig}
	}
	m0, m1, m3 := &j.Maps[0], &j.Maps[1], &j.Maps[3]
	r0, r1 := &j.Reduces[0], &j.Reduces[1]
	m1c, r1c := clone(m1), clone(r1)
	for _, a := range []*Task{m3, r1c, m1c, r0, m1, m0, r1} {
		j.addInFlight(a)
	}
	mapsOnly := newJob(spec, replicasAll(4, 1), 1, 1)
	mapsOnly.addInFlight(&mapsOnly.Maps[2])

	// prefix has spare capacity, so the appended part shares its array.
	prefix := func() []*Task { return append(make([]*Task, 0, 8), r1c, m3) }
	for _, c := range []struct {
		name string
		job  *Job
		dst  []*Task
		kind TaskKind
		want []*Task
	}{
		{"maps", j, nil, MapTask, []*Task{m0, m1, m1c, m3}},
		{"reduces", j, nil, ReduceTask, []*Task{r0, r1, r1c}},
		{"after unsorted prefix", j, prefix(), MapTask, []*Task{r1c, m3, m0, m1, m1c, m3}},
		{"no attempts of kind", mapsOnly, prefix(), ReduceTask, []*Task{r1c, m3}},
	} {
		t.Run(c.name, func(t *testing.T) {
			if got := c.job.AppendRunningAttempts(c.dst, c.kind); !slices.Equal(got, c.want) {
				t.Errorf("got %v, want %v", attemptNames(got), attemptNames(c.want))
			}
		})
	}
}

// attemptNames renders attempts as task IDs, marking clones.
func attemptNames(ts []*Task) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.ID()
		if t.Speculative() {
			out[i] += "(clone)"
		}
	}
	return out
}

func TestRequeueRestoresTask(t *testing.T) {
	spec := workload.NewJobSpec(1, workload.Terasort, 128, 2, 0)
	j := newJob(spec, replicasAll(2, 1), 1, 1)
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
	j := newJob(spec, replicasAll(1, 1), 1, 1)
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
	nonFinite := []func(*Config){
		func(c *Config) { c.Slowstart = math.NaN() },
		func(c *Config) { c.Slowstart = math.Inf(-1) },
		func(c *Config) { c.ForcedLocalFraction = math.NaN() },
		func(c *Config) { c.ForcedLocalFraction = math.Inf(-1) },
		func(c *Config) { c.NetShareDivisor = math.NaN() },
		func(c *Config) { c.NetShareDivisor = math.Inf(1) },
		func(c *Config) { c.Power.SleepWatts = math.NaN() },
		func(c *Config) { c.Power.SleepWatts = math.Inf(1) },
	}
	for i, set := range nonFinite {
		bad = DefaultConfig()
		set(&bad)
		if err := bad.Validate(); err == nil {
			t.Errorf("non-finite case %d accepted", i)
		}
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
