package mapreduce_test

import (
	"math"
	"reflect"
	"testing"
	"time"

	"eant/internal/cluster"
	"eant/internal/core"
	"eant/internal/fault"
	"eant/internal/mapreduce"
	"eant/internal/noise"
	"eant/internal/probe"
	"eant/internal/sched"
	"eant/internal/workload"
)

// mixedJobs covers every app, reduce-heavy and map-only jobs, and
// staggered arrivals.
func mixedJobs() []workload.JobSpec {
	return []workload.JobSpec{
		workload.NewJobSpec(0, workload.Wordcount, 1920, 3, 0),
		workload.NewJobSpec(1, workload.Grep, 1280, 2, 20*time.Second),
		workload.NewJobSpec(2, workload.Terasort, 2560, 4, 40*time.Second),
		workload.NewJobSpec(3, workload.Grep, 640, 0, time.Minute),
	}
}

func newEAnt(t *testing.T) *core.EAnt {
	t.Helper()
	e, err := core.NewEAnt(core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// checkTallies compares the run's completion tallies, and the task counts
// its control_tick events carry, with an independent oracle: the task
// records folded in record (completion) order, the order in which the
// driver accumulates each cell, so even the float sums must match to the
// bit.
func checkTallies(t *testing.T, s *mapreduce.Stats, ticks []probe.Event) {
	t.Helper()
	if len(s.Tasks) == 0 {
		t.Fatal("no task records")
	}
	completed := map[mapreduce.AppKindKey]int{}
	energy := map[mapreduce.AppKindKey]mapreduce.EnergyPair{}
	byMachine := map[int]int{}
	for _, r := range s.Tasks {
		k := mapreduce.AppKindKey{MachineType: r.MachineType, App: r.App, Kind: r.Kind}
		completed[k]++
		p := energy[k]
		p.EstJoules += r.EstJoules
		p.TrueJoules += r.TrueJoules
		p.Tasks++
		energy[k] = p
		byMachine[r.MachineID]++
	}
	if !reflect.DeepEqual(s.Completed, completed) {
		t.Errorf("Completed = %v, records fold to %v", s.Completed, completed)
	}
	if !reflect.DeepEqual(s.CompletedByMachine, byMachine) {
		t.Errorf("CompletedByMachine = %v, records fold to %v", s.CompletedByMachine, byMachine)
	}
	if len(s.Energy) != len(energy) {
		t.Errorf("Energy has %d keys, records fold to %d", len(s.Energy), len(energy))
	}
	for k, want := range energy {
		got, ok := s.Energy[k]
		if !ok || got.Tasks != want.Tasks ||
			math.Float64bits(got.EstJoules) != math.Float64bits(want.EstJoules) ||
			math.Float64bits(got.TrueJoules) != math.Float64bits(want.TrueJoules) {
			t.Errorf("Energy[%v] = %+v, records fold to %+v", k, got, want)
		}
	}
	if got := s.TasksDone(); got != len(s.Tasks) {
		t.Errorf("TasksDone = %d, %d records", got, len(s.Tasks))
	}
	// Each control tick reads the running total: every completion strictly
	// before the tick, and at most those at its instant.
	if len(ticks) == 0 {
		t.Error("no control ticks")
	}
	for _, ev := range ticks {
		before, upTo := 0, 0
		for _, r := range s.Tasks {
			if r.Finish < ev.At {
				before++
			}
			if r.Finish <= ev.At {
				upTo++
			}
		}
		if done := int(ev.N); done < before || done > upTo {
			t.Errorf("tick at %v counts %d tasks done, records say %d..%d", ev.At, done, before, upTo)
		}
	}
}

// talliedRun runs jobs on the testbed with a probe keeping the control
// ticks, and checks the run's tallies.
func talliedRun(t *testing.T, s mapreduce.Scheduler, cfg mapreduce.Config, jobs []workload.JobSpec) *mapreduce.Stats {
	t.Helper()
	var ticks []probe.Event
	cfg.Probe = collect(probe.KindControlTick, &ticks)
	stats := run(t, cluster.Testbed(), s, cfg, jobs)
	checkTallies(t, stats, ticks)
	return stats
}

func TestCompletionTalliesMatchRecords(t *testing.T) {
	base := func() mapreduce.Config {
		cfg := mapreduce.DefaultConfig()
		cfg.Seed = 11
		cfg.Noise = noise.Default()
		cfg.ControlInterval = time.Minute
		cfg.KeepTaskRecords = true
		return cfg
	}
	t.Run("Fair", func(t *testing.T) {
		talliedRun(t, sched.NewFair(), base(), mixedJobs())
	})
	t.Run("Tarazu", func(t *testing.T) {
		talliedRun(t, sched.NewTarazu(), base(), mixedJobs())
	})
	t.Run("E-Ant", func(t *testing.T) {
		talliedRun(t, newEAnt(t), base(), mixedJobs())
	})
	t.Run("LATE speculation", func(t *testing.T) {
		cfg := base()
		cfg.Seed = 1
		cfg.Noise = noise.Config{DurationCV: 0.1, StragglerProb: 0.25, StragglerMin: 4, StragglerMax: 6}
		jobs := workload.Batch(workload.Wordcount, 4, 3200, 4, 10*time.Second)
		s := talliedRun(t, sched.NewLATE(), cfg, jobs)
		if s.SpeculativeStarted == 0 || s.SpeculativeKilled == 0 {
			t.Fatalf("no speculation raced: %d started, %d killed", s.SpeculativeStarted, s.SpeculativeKilled)
		}
	})
	t.Run("E-Ant faults and consolidation", func(t *testing.T) {
		cfg := base()
		cfg.Power = mapreduce.PowerMgmt{Enabled: true, IdleTimeout: 20 * time.Second}
		cfg.Fault = fault.Config{
			MachineMTBF:        10 * time.Minute,
			MachineMTTR:        time.Minute,
			TaskFailProb:       0.1,
			MaxAttempts:        100,
			BlacklistThreshold: 2,
			BlacklistCooldown:  time.Minute,
		}
		s := talliedRun(t, newEAnt(t), cfg, mixedJobs())
		if s.Crashes == 0 || s.TaskFailures == 0 || s.Sleeps == 0 {
			t.Fatalf("quiet run: %d crashes, %d attempt failures, %d sleeps", s.Crashes, s.TaskFailures, s.Sleeps)
		}
	})
}
