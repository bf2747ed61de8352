package mapreduce_test

import (
	"reflect"
	"testing"
	"time"

	"eant/internal/cluster"
	"eant/internal/fault"
	"eant/internal/mapreduce"
	"eant/internal/sched"
	"eant/internal/workload"
)

// eagerCloner is a pathological speculation policy for race/fault
// interaction tests: before assigning fresh work it clones any running
// map attempt hosted on a different machine, forcing the driver to
// resolve a speculation race for nearly every map — including races whose
// members die to attempt failures or machine crashes mid-flight.
type eagerCloner struct {
	inner mapreduce.Scheduler
}

func (s *eagerCloner) Name() string { return "eager-clone" }

func (s *eagerCloner) AssignMap(ctx *mapreduce.Context, m cluster.Machine) *mapreduce.Task {
	for _, j := range ctx.ActiveJobs() {
		for _, t := range j.AppendRunningAttempts(nil, mapreduce.MapTask) {
			if t.Machine.Valid() && t.Machine.ID() != m.ID() {
				if c := ctx.CloneForSpeculation(t); c != nil {
					return c
				}
			}
		}
	}
	return s.inner.AssignMap(ctx, m)
}

func (s *eagerCloner) AssignReduce(ctx *mapreduce.Context, m cluster.Machine) *mapreduce.Task {
	return s.inner.AssignReduce(ctx, m)
}

func (s *eagerCloner) OnTaskComplete(ctx *mapreduce.Context, t *mapreduce.Task) {
	s.inner.OnTaskComplete(ctx, t)
}

func (s *eagerCloner) OnControlTick(ctx *mapreduce.Context) { s.inner.OnControlTick(ctx) }

// TestSpeculationSurvivesAttemptFailures kills race members with attempt
// failures: an original may die while its clone runs (the clone must
// finish the task alone) and a clone may die while the original runs. The
// job must complete every logical task exactly once with no slot leaks.
func TestSpeculationSurvivesAttemptFailures(t *testing.T) {
	cfg := mapreduce.DefaultConfig()
	cfg.Seed = 9
	cfg.Fault = fault.Config{TaskFailProb: 0.25, MaxAttempts: 100}
	c := smallCluster()
	jobs := []workload.JobSpec{workload.NewJobSpec(0, workload.Terasort, 3200, 2, 0)}
	stats := run(t, c, &eagerCloner{inner: sched.NewFair()}, cfg, jobs)

	if stats.SpeculativeStarted == 0 || stats.TaskFailures == 0 {
		t.Fatalf("test inert: %d clones, %d failures", stats.SpeculativeStarted, stats.TaskFailures)
	}
	if len(stats.Jobs) != 1 || stats.Jobs[0].Failed {
		t.Fatalf("job did not complete: %+v", stats.Jobs)
	}
	if got, want := stats.TasksDone(), 50+2; got != want {
		t.Errorf("TasksDone = %d, want %d — a race member double-counted or a task was dropped", got, want)
	}
	checkClusterQuiescent(t, c)
}

// TestSpeculationSurvivesCrashes crashes machines under heavy speculation:
// crashes can kill an original while its clone runs elsewhere, kill a
// clone, or sweep both race members at one instant. Everything must
// resolve without leaking slots or dropping tasks.
func TestSpeculationSurvivesCrashes(t *testing.T) {
	cfg := mapreduce.DefaultConfig()
	cfg.Seed = 13
	cfg.Fault = fault.Config{
		MachineMTBF: 90 * time.Second,
		MachineMTTR: 30 * time.Second,
	}
	c := smallCluster()
	jobs := []workload.JobSpec{workload.NewJobSpec(0, workload.Terasort, 3200, 2, 0)}
	stats := run(t, c, &eagerCloner{inner: sched.NewFair()}, cfg, jobs)

	if stats.SpeculativeStarted == 0 || stats.Crashes == 0 {
		t.Fatalf("test inert: %d clones, %d crashes", stats.SpeculativeStarted, stats.Crashes)
	}
	if len(stats.Jobs) != 1 || stats.Jobs[0].Failed {
		t.Fatalf("job did not complete: %+v", stats.Jobs)
	}
	// Map outputs may legitimately be re-executed after crashes, so the
	// completion tally is the task count plus re-executions, never less.
	if got, min := stats.TasksDone(), 50+2; got < min {
		t.Errorf("TasksDone = %d, want >= %d", got, min)
	}
	checkClusterQuiescent(t, c)
}

// TestSpeculationWithFaultsIsDeterministic runs the full pathological mix
// — eager cloning, attempt failures, and machine churn — twice and demands
// bit-identical statistics.
func TestSpeculationWithFaultsIsDeterministic(t *testing.T) {
	jobs := []workload.JobSpec{workload.NewJobSpec(0, workload.Terasort, 3200, 2, 0)}
	mk := func() *mapreduce.Stats {
		cfg := mapreduce.DefaultConfig()
		cfg.Seed = 21
		cfg.KeepTaskRecords = true
		cfg.Fault = fault.Config{
			MachineMTBF:  2 * time.Minute,
			MachineMTTR:  30 * time.Second,
			TaskFailProb: 0.1,
			MaxAttempts:  100,
		}
		return run(t, smallCluster(), &eagerCloner{inner: sched.NewFair()}, cfg, jobs)
	}
	a, b := mk(), mk()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("speculation+faults nondeterministic: joules %v vs %v, horizon %v vs %v",
			a.TotalJoules, b.TotalJoules, a.Horizon, b.Horizon)
	}
}
