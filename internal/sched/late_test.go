package sched_test

import (
	"testing"
	"time"

	"eant/internal/cluster"
	"eant/internal/fault"
	"eant/internal/mapreduce"
	"eant/internal/noise"
	"eant/internal/sched"
	"eant/internal/workload"
)

// stragglerConfig injects frequent, heavy stragglers so speculation has
// something to chase.
func stragglerConfig(seed int64) mapreduce.Config {
	cfg := mapreduce.DefaultConfig()
	cfg.Seed = seed
	cfg.Noise = noise.Config{
		DurationCV:    0.1,
		StragglerProb: 0.25,
		StragglerMin:  4,
		StragglerMax:  6,
	}
	return cfg
}

func runLate(t *testing.T, s mapreduce.Scheduler, cfg mapreduce.Config) *mapreduce.Stats {
	t.Helper()
	d, err := mapreduce.NewDriver(cluster.Testbed(), s, cfg)
	if err != nil {
		t.Fatalf("NewDriver: %v", err)
	}
	jobs := workload.Batch(workload.Wordcount, 4, 3200, 4, 10*time.Second)
	stats, err := d.Run(jobs, 12*time.Hour)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return stats
}

func TestLATEName(t *testing.T) {
	if sched.NewLATE().Name() != "LATE" {
		t.Error("name mismatch")
	}
}

// TestLATEIsNotQuietWhenIdle pins that the driver always walks LATE's
// offers: LATE speculates on empty queues, so it must not declare
// mapreduce.QuietWhenIdle, and its Fair is a named field, which keeps
// Fair's marker from being promoted.
func TestLATEIsNotQuietWhenIdle(t *testing.T) {
	var s mapreduce.Scheduler = sched.NewLATE()
	if _, ok := s.(mapreduce.QuietWhenIdle); ok {
		t.Error("LATE implements mapreduce.QuietWhenIdle")
	}
}

func TestLATECompletesAllJobsWithSpeculation(t *testing.T) {
	stats := runLate(t, sched.NewLATE(), stragglerConfig(1))
	if len(stats.Jobs) != 4 {
		t.Fatalf("finished %d/4 jobs", len(stats.Jobs))
	}
	if stats.SpeculativeStarted == 0 {
		t.Error("no speculative attempts launched under heavy stragglers")
	}
	if stats.SpeculativeKilled == 0 {
		t.Error("no race losers killed")
	}
	// Every race resolves exactly one loser: started clones either win
	// (original killed) or lose (clone killed); either way one kill per
	// *resolved* race, and no more kills than races.
	if stats.SpeculativeKilled > stats.SpeculativeStarted {
		t.Errorf("killed %d > started %d", stats.SpeculativeKilled, stats.SpeculativeStarted)
	}
	if stats.SpeculativeWon > stats.SpeculativeStarted {
		t.Errorf("clone wins %d > clones started %d", stats.SpeculativeWon, stats.SpeculativeStarted)
	}
	t.Logf("speculation: started=%d cloneWins=%d killed=%d",
		stats.SpeculativeStarted, stats.SpeculativeWon, stats.SpeculativeKilled)
}

func TestLATEShortensStragglerTails(t *testing.T) {
	// Compare makespans under identical straggler noise: LATE's
	// speculative copies should cut the tail relative to Fair.
	var fairMs, lateMs float64
	for seed := int64(1); seed <= 3; seed++ {
		fair := runLate(t, sched.NewFair(), stragglerConfig(seed))
		late := runLate(t, sched.NewLATE(), stragglerConfig(seed))
		fairMs += fair.Horizon.Seconds()
		lateMs += late.Horizon.Seconds()
		if len(late.Jobs) != 4 {
			t.Fatalf("seed %d: LATE finished %d/4 jobs", seed, len(late.Jobs))
		}
	}
	if lateMs >= fairMs {
		t.Errorf("LATE mean makespan %.0fs not below Fair %.0fs under heavy stragglers",
			lateMs/3, fairMs/3)
	}
	t.Logf("makespan: LATE %.0fs vs Fair %.0fs", lateMs/3, fairMs/3)
}

func TestLATENoSpeculationWithoutStragglers(t *testing.T) {
	cfg := mapreduce.DefaultConfig() // noise off
	stats := runLate(t, sched.NewLATE(), cfg)
	if stats.SpeculativeStarted != 0 {
		t.Errorf("launched %d speculative attempts without noise", stats.SpeculativeStarted)
	}
	if len(stats.Jobs) != 4 {
		t.Fatalf("finished %d/4 jobs", len(stats.Jobs))
	}
}

func TestLATETaskAccountingConsistent(t *testing.T) {
	cfg := stragglerConfig(7)
	cfg.KeepTaskRecords = true
	stats := runLate(t, sched.NewLATE(), cfg)
	// Each logical task completes exactly once: 4 jobs × (50 maps + 4
	// reduces) records, regardless of how many clones raced.
	want := 4 * (50 + 4)
	if got := len(stats.Tasks); got != want {
		t.Errorf("task records = %d, want %d", got, want)
	}
	if got := stats.TasksDone(); got != want {
		t.Errorf("TasksDone = %d, want %d", got, want)
	}
}

func TestSpeculationCloneRules(t *testing.T) {
	// CloneForSpeculation's refusal rules are driver-internal; exercise
	// them through a scheduler that tries to clone everything.
	cfg := stragglerConfig(3)
	greedy := &cloneEverything{}
	d, err := mapreduce.NewDriver(cluster.Testbed(), greedy, cfg)
	if err != nil {
		t.Fatal(err)
	}
	jobs := workload.Batch(workload.Grep, 2, 1280, 2, 0)
	stats, err := d.Run(jobs, 12*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Jobs) != 2 {
		t.Fatalf("finished %d/2 jobs", len(stats.Jobs))
	}
	// No double-clones: kills can never exceed clones started.
	if stats.SpeculativeKilled > stats.SpeculativeStarted {
		t.Errorf("killed %d > started %d", stats.SpeculativeKilled, stats.SpeculativeStarted)
	}
}

func TestLATESurvivesStragglersAndFaults(t *testing.T) {
	// LATE's straggler chasing must compose with fault recovery: heavy
	// straggler noise drives speculation while machine churn and attempt
	// failures kill race members mid-flight. Every job still completes,
	// with each logical task recorded exactly once plus any map outputs
	// re-executed after crashes.
	cfg := stragglerConfig(2)
	cfg.KeepTaskRecords = true
	cfg.Fault = fault.Config{
		MachineMTBF:  8 * time.Minute,
		MachineMTTR:  time.Minute,
		TaskFailProb: 0.05,
		MaxAttempts:  100,
	}
	stats := runLate(t, sched.NewLATE(), cfg)
	if stats.SpeculativeStarted == 0 || stats.Crashes == 0 || stats.TaskFailures == 0 {
		t.Fatalf("test inert: clones=%d crashes=%d failures=%d",
			stats.SpeculativeStarted, stats.Crashes, stats.TaskFailures)
	}
	if len(stats.Jobs) != 4 {
		t.Fatalf("finished %d/4 jobs under faults", len(stats.Jobs))
	}
	for _, j := range stats.Jobs {
		if j.Failed {
			t.Errorf("job %d failed with a generous retry budget", j.Spec.ID)
		}
	}
	want := 4*(50+4) + stats.MapOutputsLost
	if got := len(stats.Tasks); got != want {
		t.Errorf("task records = %d, want %d (incl. %d re-executed maps)",
			got, want, stats.MapOutputsLost)
	}
	t.Logf("faults under LATE: crashes=%d failures=%d killedByCrash=%d outputsLost=%d clones=%d",
		stats.Crashes, stats.TaskFailures, stats.TasksKilledByCrash,
		stats.MapOutputsLost, stats.SpeculativeStarted)
}

// cloneEverything is a pathological scheduler that speculates any running
// attempt whenever it has no pending work, with no straggler threshold.
type cloneEverything struct{ fair sched.Fair }

func (c *cloneEverything) Name() string { return "CloneEverything" }

func (c *cloneEverything) AssignMap(ctx *mapreduce.Context, m cluster.Machine) *mapreduce.Task {
	if t := c.fair.AssignMap(ctx, m); t != nil {
		return t
	}
	for _, j := range ctx.ActiveJobs() {
		for _, t := range j.AppendRunningAttempts(nil, mapreduce.MapTask) {
			if clone := ctx.CloneForSpeculation(t); clone != nil {
				return clone
			}
		}
	}
	return nil
}

func (c *cloneEverything) AssignReduce(ctx *mapreduce.Context, m cluster.Machine) *mapreduce.Task {
	return c.fair.AssignReduce(ctx, m)
}

func (c *cloneEverything) OnTaskComplete(*mapreduce.Context, *mapreduce.Task) {}
func (c *cloneEverything) OnControlTick(*mapreduce.Context)                   {}
