package sched_test

import (
	"testing"
	"time"

	"eant/internal/cluster"
	"eant/internal/mapreduce"
	"eant/internal/noise"
	"eant/internal/probe"
	"eant/internal/sched"
	"eant/internal/sim"
	"eant/internal/workload"
)

func testbed() *cluster.Cluster {
	return cluster.MustNew(
		cluster.Group{Spec: cluster.SpecDesktop, Count: 2},
		cluster.Group{Spec: cluster.SpecT420, Count: 1},
		cluster.Group{Spec: cluster.SpecAtom, Count: 1},
	)
}

func runJobs(t *testing.T, s mapreduce.Scheduler, jobs []workload.JobSpec) *mapreduce.Stats {
	t.Helper()
	cfg := mapreduce.DefaultConfig()
	cfg.KeepTaskRecords = true
	d, err := mapreduce.NewDriver(testbed(), s, cfg)
	if err != nil {
		t.Fatalf("NewDriver: %v", err)
	}
	stats, err := d.Run(jobs, 12*time.Hour)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return stats
}

func TestSchedulerNames(t *testing.T) {
	if sched.NewFIFO().Name() != "FIFO" {
		t.Error("FIFO name")
	}
	if sched.NewFair().Name() != "Fair" {
		t.Error("Fair name")
	}
	if sched.NewTarazu().Name() != "Tarazu" {
		t.Error("Tarazu name")
	}
}

func TestFIFOCompletesJobsInOrder(t *testing.T) {
	jobs := []workload.JobSpec{
		workload.NewJobSpec(0, workload.Wordcount, 3200, 2, 0),
		workload.NewJobSpec(1, workload.Wordcount, 320, 1, 0),
	}
	stats := runJobs(t, sched.NewFIFO(), jobs)
	if len(stats.Jobs) != 2 {
		t.Fatalf("finished %d jobs, want 2", len(stats.Jobs))
	}
	big := stats.JobByID(0)
	small := stats.JobByID(1)
	// FIFO serves the big job first; the small job, despite being 10×
	// smaller, cannot leapfrog it.
	if small.Finished < big.MapsDoneAt {
		t.Errorf("FIFO let the later job finish (%v) before the head job's maps (%v)",
			small.Finished, big.MapsDoneAt)
	}
}

func TestFairSharesAmongJobs(t *testing.T) {
	// Under Fair, a small job co-submitted with a big one finishes far
	// earlier than the big one, unlike FIFO.
	jobs := []workload.JobSpec{
		workload.NewJobSpec(0, workload.Wordcount, 6400, 2, 0),
		workload.NewJobSpec(1, workload.Wordcount, 320, 1, 0),
	}
	fair := runJobs(t, sched.NewFair(), jobs)
	small := fair.JobByID(1)
	big := fair.JobByID(0)
	if small.Finished >= big.Finished {
		t.Errorf("Fair: small job finished at %v, after big job at %v",
			small.Finished, big.Finished)
	}
	if small.CompletionTime() > big.CompletionTime()/2 {
		t.Errorf("Fair: small JCT %v not ≪ big JCT %v", small.CompletionTime(), big.CompletionTime())
	}
}

// TestTarazuRemoteGateBoundsShare pins Tarazu's remote-work gate on MSD
// runs on the paper testbed. It replays Tarazu's started counts from the
// runs' map assign events: every remote start after the first must keep
// its machine's share of the starts, this one included, within the
// machine's capability share (cores × speed over the fleet's) times the
// 1.5 slack.
func TestTarazuRemoteGateBoundsShare(t *testing.T) {
	const slack = 1.5
	machines := cluster.Testbed().Machines()
	capShare := make([]float64, len(machines))
	var fleetCap float64
	for _, m := range machines {
		capShare[m.ID()] = float64(m.Spec().Cores) * m.Spec().SpeedFactor
		fleetCap += capShare[m.ID()]
	}
	for id := range capShare {
		capShare[id] /= fleetCap
	}
	for seed := int64(1); seed <= 3; seed++ {
		jobs, err := workload.GenerateMSD(workload.MSDConfig{Jobs: 40, Scale: 64, MeanInterarrival: 30 * time.Second}, sim.NewRNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		var assigns []probe.Event
		cfg := mapreduce.DefaultConfig()
		cfg.ControlInterval = 30 * time.Second
		cfg.Seed = seed
		cfg.Noise = noise.Default()
		cfg.Probe = probe.New(probe.Config{Sink: func(ev probe.Event) {
			if ev.Kind == probe.KindAssign && ev.TaskKind == int8(mapreduce.MapTask) {
				assigns = append(assigns, ev)
			}
		}})
		d, err := mapreduce.NewDriver(cluster.Testbed(), sched.NewTarazu(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Run(jobs, -1); err != nil {
			t.Fatal(err)
		}
		started := make([]int, len(capShare))
		remote, over := 0, 0
		for total, ev := range assigns {
			m := ev.MachineID
			if !ev.Flag && total > 0 {
				remote++
				if share := float64(started[m]+1) / float64(total+1); share > capShare[m]*slack {
					over++
					t.Logf("seed %d: remote start %d on machine %d at %v: share %.4f over %.4f", seed, total, m, ev.At, share, capShare[m]*slack)
				}
			}
			started[m]++
		}
		t.Logf("seed %d: %d of %d map starts remote after the first", seed, remote, len(assigns))
		if remote == 0 {
			t.Errorf("seed %d: no remote map start after the first; the gate went unexercised", seed)
		}
		if over > 0 {
			t.Errorf("seed %d: %d of %d remote starts took a machine past its capability share × %v", seed, over, remote, slack)
		}
	}
}

func TestTarazuImprovesMakespanOverFair(t *testing.T) {
	jobs := workload.Batch(workload.Wordcount, 6, 3200, 2, 0)
	fair := runJobs(t, sched.NewFair(), jobs)
	tarazu := runJobs(t, sched.NewTarazu(), jobs)
	// Communication-aware balancing should not lengthen the campaign.
	if tarazu.Horizon > fair.Horizon*105/100 {
		t.Errorf("Tarazu makespan %v worse than Fair %v", tarazu.Horizon, fair.Horizon)
	}
}

func TestAllSchedulersCompleteMixedWorkload(t *testing.T) {
	jobs := []workload.JobSpec{
		workload.NewJobSpec(0, workload.Wordcount, 1280, 2, 0),
		workload.NewJobSpec(1, workload.Grep, 1280, 2, 30*time.Second),
		workload.NewJobSpec(2, workload.Terasort, 1280, 4, time.Minute),
	}
	for _, s := range []mapreduce.Scheduler{sched.NewFIFO(), sched.NewFair(), sched.NewTarazu()} {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			stats := runJobs(t, s, jobs)
			if len(stats.Jobs) != 3 {
				t.Fatalf("%s finished %d/3 jobs", s.Name(), len(stats.Jobs))
			}
			if stats.TasksDone() != 20*3+2+2+4 {
				t.Errorf("%s completed %d tasks, want 68", s.Name(), stats.TasksDone())
			}
		})
	}
}

func TestSchedulersPreferLocalTasks(t *testing.T) {
	jobs := []workload.JobSpec{workload.NewJobSpec(0, workload.Grep, 6400, 2, 0)}
	for _, s := range []mapreduce.Scheduler{sched.NewFIFO(), sched.NewFair(), sched.NewTarazu()} {
		stats := runJobs(t, s, jobs)
		// Replication 3 over 4 machines: most assignments can be local.
		if got := stats.LocalityFraction(); got < 0.5 {
			t.Errorf("%s locality fraction = %.2f, want ≥ 0.5", s.Name(), got)
		}
	}
}
