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

// checkTallies compares the run's completion tallies with an independent
// oracle: the task records folded in record (completion) order, the order
// in which the driver accumulates each cell, so even the float sums must
// match to the bit.
func checkTallies(t *testing.T, s *mapreduce.Stats) {
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
	for _, p := range s.Timeline {
		before, upTo := 0, 0
		for _, r := range s.Tasks {
			if r.Finish < p.At {
				before++
			}
			if r.Finish <= p.At {
				upTo++
			}
		}
		if p.TasksDone < before || p.TasksDone > upTo {
			t.Errorf("tick at %v counts %d tasks done, records say %d..%d", p.At, p.TasksDone, before, upTo)
		}
	}
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
		checkTallies(t, run(t, cluster.Testbed(), sched.NewFair(), base(), mixedJobs()))
	})
	t.Run("Tarazu", func(t *testing.T) {
		checkTallies(t, run(t, cluster.Testbed(), sched.NewTarazu(), base(), mixedJobs()))
	})
	t.Run("E-Ant", func(t *testing.T) {
		checkTallies(t, run(t, cluster.Testbed(), newEAnt(t), base(), mixedJobs()))
	})
	t.Run("LATE speculation", func(t *testing.T) {
		cfg := base()
		cfg.Seed = 1
		cfg.Noise = noise.Config{DurationCV: 0.1, StragglerProb: 0.25, StragglerMin: 4, StragglerMax: 6}
		jobs := workload.Batch(workload.Wordcount, 4, 3200, 4, 10*time.Second)
		s := run(t, cluster.Testbed(), sched.NewLATE(), cfg, jobs)
		if s.SpeculativeStarted == 0 || s.SpeculativeKilled == 0 {
			t.Fatalf("no speculation raced: %d started, %d killed", s.SpeculativeStarted, s.SpeculativeKilled)
		}
		checkTallies(t, s)
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
		s := run(t, cluster.Testbed(), newEAnt(t), cfg, mixedJobs())
		if s.Crashes == 0 || s.TaskFailures == 0 || s.Sleeps == 0 {
			t.Fatalf("quiet run: %d crashes, %d attempt failures, %d sleeps", s.Crashes, s.TaskFailures, s.Sleeps)
		}
		checkTallies(t, s)
	})
}

// TestWarmDivisorChangeEqualsCold changes NetShareDivisor between two runs
// of one driver under the two policies that read service estimates: the
// warm run must equal a cold driver built with the new divisor. (The
// estimates themselves do not read the divisor — maps are estimated
// data-local and reduces without their shuffle — but every remote read
// and shuffle of the run does.)
func TestWarmDivisorChangeEqualsCold(t *testing.T) {
	cfg := func(divisor float64) mapreduce.Config {
		c := mapreduce.DefaultConfig()
		c.Seed = 5
		c.Noise = noise.Default()
		c.NetShareDivisor = divisor
		return c
	}
	for _, tc := range []struct {
		name string
		make func() mapreduce.Scheduler
		// reset readies the policy for its next run, as eant.Runner does.
		reset func(mapreduce.Scheduler) error
	}{
		{"Tarazu", func() mapreduce.Scheduler { return sched.NewTarazu() },
			func(p mapreduce.Scheduler) error { p.(*sched.Tarazu).ResetForRun(); return nil }},
		{"E-Ant", func() mapreduce.Scheduler { return newEAnt(t) },
			func(p mapreduce.Scheduler) error { return p.(*core.EAnt).ResetForRun(core.DefaultParams()) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			jobs := mixedJobs()
			p := tc.make()
			d, err := mapreduce.NewDriver(cluster.Testbed(), p, cfg(16))
			if err != nil {
				t.Fatal(err)
			}
			d.EnableInvariantChecks(func(err error) { t.Fatal(err) })
			first, err := d.Run(jobs, -1)
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.reset(p); err != nil {
				t.Fatal(err)
			}
			if err := d.Reset(p, cfg(8)); err != nil {
				t.Fatal(err)
			}
			warm, err := d.Run(jobs, -1)
			if err != nil {
				t.Fatal(err)
			}
			cold := run(t, cluster.Testbed(), tc.make(), cfg(8), jobs)
			if !reflect.DeepEqual(warm, cold) {
				t.Errorf("warm run at divisor 8 differs from cold: makespan %v vs %v, %v J vs %v J",
					warm.Horizon, cold.Horizon, warm.TotalJoules, cold.TotalJoules)
			}
			if reflect.DeepEqual(first, cold) {
				t.Error("divisor 16 and 8 ran identically; the divisor change went unexercised")
			}
		})
	}
}
