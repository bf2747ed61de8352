package mapreduce_test

import (
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"eant/internal/cluster"
	"eant/internal/core"
	"eant/internal/fault"
	"eant/internal/hdfs"
	"eant/internal/mapreduce"
	"eant/internal/noise"
	"eant/internal/probe"
	"eant/internal/sched"
	"eant/internal/workload"
)

func smallCluster() *cluster.Cluster {
	return cluster.MustNew(
		cluster.Group{Spec: cluster.SpecDesktop, Count: 2},
		cluster.Group{Spec: cluster.SpecT420, Count: 1},
	)
}

// replayCluster is smallCluster plus an Atom and a T110: four machine
// types, so a per-type float sum taken in map order can change its bits
// from run to run (two terms commute, three or more need not associate),
// and the determinism replays that run on it see the order. A sum over
// the per-type map broke their replay in 18 of 20 invocations on this
// fleet, 5 of 20 with three types and none with two (EXPERIMENTS.md).
func replayCluster() *cluster.Cluster {
	return cluster.MustNew(
		cluster.Group{Spec: cluster.SpecDesktop, Count: 2},
		cluster.Group{Spec: cluster.SpecT420, Count: 1},
		cluster.Group{Spec: cluster.SpecAtom, Count: 1},
		cluster.Group{Spec: cluster.SpecT110, Count: 1},
	)
}

func run(t *testing.T, c *cluster.Cluster, s mapreduce.Scheduler, cfg mapreduce.Config, jobs []workload.JobSpec) *mapreduce.Stats {
	t.Helper()
	d, err := mapreduce.NewDriver(c, s, cfg)
	if err != nil {
		t.Fatalf("NewDriver: %v", err)
	}
	// Every driver test doubles as an aggregate-invariant test: after each
	// mutating event the incremental statistics must equal a recompute.
	d.EnableInvariantChecks(func(err error) { t.Fatal(err) })
	stats, err := d.Run(jobs, -1)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return stats
}

// collect returns a probe whose sink appends every event of the given kind
// to out.
func collect(kind probe.Kind, out *[]probe.Event) *probe.Probe {
	return probe.New(probe.Config{Sink: func(ev probe.Event) {
		if ev.Kind == kind {
			*out = append(*out, ev)
		}
	}})
}

func TestSingleJobCompletes(t *testing.T) {
	cfg := mapreduce.DefaultConfig()
	cfg.KeepTaskRecords = true
	jobs := []workload.JobSpec{workload.NewJobSpec(0, workload.Wordcount, 640, 2, 0)}
	stats := run(t, smallCluster(), sched.NewFIFO(), cfg, jobs)

	if len(stats.Jobs) != 1 {
		t.Fatalf("finished %d jobs, want 1", len(stats.Jobs))
	}
	r := stats.Jobs[0]
	if r.Finished <= r.FirstStart {
		t.Error("job finished before it started")
	}
	if r.MapsDoneAt > r.Finished || r.MapsDoneAt < r.FirstStart {
		t.Error("map barrier outside job lifetime")
	}
	wantTasks := 10 + 2
	if got := stats.TasksDone(); got != wantTasks {
		t.Errorf("TasksDone = %d, want %d", got, wantTasks)
	}
	if len(stats.Tasks) != wantTasks {
		t.Errorf("task records = %d, want %d", len(stats.Tasks), wantTasks)
	}
	if stats.TotalJoules <= 0 {
		t.Error("no energy accounted")
	}
}

func TestTaskRecordsConsistent(t *testing.T) {
	cfg := mapreduce.DefaultConfig()
	cfg.KeepTaskRecords = true
	jobs := []workload.JobSpec{workload.NewJobSpec(0, workload.Terasort, 1280, 4, 0)}
	stats := run(t, smallCluster(), sched.NewFIFO(), cfg, jobs)

	maps, reduces := 0, 0
	for _, rec := range stats.Tasks {
		if rec.Finish <= rec.Start {
			t.Errorf("task %v finished at/before start", rec)
		}
		if rec.EstJoules <= 0 || rec.TrueJoules <= 0 {
			t.Errorf("task has non-positive energy: %+v", rec)
		}
		switch rec.Kind {
		case mapreduce.MapTask:
			maps++
		case mapreduce.ReduceTask:
			reduces++
		}
	}
	if maps != 20 || reduces != 4 {
		t.Errorf("completed %d maps, %d reduces; want 20, 4", maps, reduces)
	}
}

func TestReducesWaitForMapBarrier(t *testing.T) {
	cfg := mapreduce.DefaultConfig()
	cfg.KeepTaskRecords = true
	jobs := []workload.JobSpec{workload.NewJobSpec(0, workload.Terasort, 2560, 4, 0)}
	stats := run(t, smallCluster(), sched.NewFIFO(), cfg, jobs)

	r := stats.Jobs[0]
	for _, rec := range stats.Tasks {
		if rec.Kind == mapreduce.ReduceTask && rec.Finish < r.MapsDoneAt {
			t.Errorf("reduce finished at %v before map barrier %v", rec.Finish, r.MapsDoneAt)
		}
	}
	if r.LastShuffleEnd < r.MapsDoneAt {
		t.Error("shuffle ended before map barrier")
	}
}

func TestEnergyConservation(t *testing.T) {
	// Metered energy must be ≥ idle floor and ≥ the true marginal task
	// energy attributed to tasks (meter includes unattributed idle time).
	cfg := mapreduce.DefaultConfig()
	cfg.KeepTaskRecords = true
	c := smallCluster()
	jobs := []workload.JobSpec{workload.NewJobSpec(0, workload.Grep, 1280, 2, 0)}
	stats := run(t, c, sched.NewFIFO(), cfg, jobs)

	var idleFloor float64
	for _, m := range c.Machines() {
		idleFloor += m.Spec().IdleWatts * stats.Horizon.Seconds()
	}
	if stats.TotalJoules < idleFloor {
		t.Errorf("metered %v J below idle floor %v J", stats.TotalJoules, idleFloor)
	}
	var taskTrue float64
	for _, rec := range stats.Tasks {
		taskTrue += rec.TrueJoules
	}
	var dynamic float64 = stats.TotalJoules - idleFloor
	var taskDynamicMax float64 = taskTrue // true joules include idle share, so this is loose
	if dynamic < 0 {
		t.Errorf("negative dynamic energy %v", dynamic)
	}
	_ = taskDynamicMax
}

func TestEstimateTracksTruthWithoutNoise(t *testing.T) {
	// With noise off, per-task estimate differs from truth only by
	// heartbeat quantization: Est ≥ True, within one Δt of power.
	cfg := mapreduce.DefaultConfig()
	cfg.KeepTaskRecords = true
	jobs := []workload.JobSpec{workload.NewJobSpec(0, workload.Wordcount, 640, 2, 0)}
	stats := run(t, smallCluster(), sched.NewFIFO(), cfg, jobs)

	for _, rec := range stats.Tasks {
		if rec.EstJoules < rec.TrueJoules*0.8 {
			t.Errorf("estimate %v far below truth %v", rec.EstJoules, rec.TrueJoules)
		}
		if rec.EstJoules > rec.TrueJoules*1.6+60 {
			t.Errorf("estimate %v far above truth %v", rec.EstJoules, rec.TrueJoules)
		}
	}
}

func TestDeterministicUnderSeed(t *testing.T) {
	cfg := mapreduce.DefaultConfig()
	cfg.Noise = noise.Default()
	cfg.Seed = 42
	jobs := workload.Batch(workload.Grep, 4, 640, 2, 30*time.Second)

	a := run(t, smallCluster(), sched.NewFair(), cfg, jobs)
	b := run(t, smallCluster(), sched.NewFair(), cfg, jobs)
	if a.TotalJoules != b.TotalJoules {
		t.Errorf("energy differs across identical runs: %v vs %v", a.TotalJoules, b.TotalJoules)
	}
	if a.Horizon != b.Horizon {
		t.Errorf("horizon differs: %v vs %v", a.Horizon, b.Horizon)
	}
	if len(a.Jobs) != len(b.Jobs) {
		t.Fatalf("job counts differ")
	}
	for i := range a.Jobs {
		if a.Jobs[i].Finished != b.Jobs[i].Finished {
			t.Errorf("job %d finish differs", i)
		}
	}
}

// faultyConfig is the shared fault-injection setup of the determinism
// tests: stochastic crashes, quick repairs, and a tangible per-attempt
// failure probability, on top of the default noise model.
func faultyConfig(seed int64) mapreduce.Config {
	cfg := mapreduce.DefaultConfig()
	cfg.Noise = noise.Default()
	cfg.Seed = seed
	cfg.KeepTaskRecords = true
	cfg.ControlInterval = time.Minute
	cfg.Fault = fault.Config{
		MachineMTBF:  4 * time.Minute,
		MachineMTTR:  time.Minute,
		TaskFailProb: 0.05,
		MaxAttempts:  8,
	}
	return cfg
}

// TestGoldenDeterminismWithFaults is the golden determinism harness: two
// runs on a four-type fleet with the same seed and fault injection ON
// must agree on every collected statistic — job timelines, task records,
// interval assignment distributions, per-machine joules, and the fault
// tallies themselves.
// reflect.DeepEqual over the whole Stats struct is deliberately brutal:
// any unsorted map iteration on the crash/recovery paths shows up here.
func TestGoldenDeterminismWithFaults(t *testing.T) {
	jobs := workload.Batch(workload.Terasort, 6, 1280, 2, 20*time.Second)

	a := run(t, replayCluster(), sched.NewFair(), faultyConfig(7), jobs)
	b := run(t, replayCluster(), sched.NewFair(), faultyConfig(7), jobs)

	if a.Crashes == 0 || a.TaskFailures == 0 {
		t.Fatalf("fault injection inert: %d crashes, %d task failures — the test is not exercising recovery",
			a.Crashes, a.TaskFailures)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("stats differ across identical faulty runs:\n a: joules=%v horizon=%v crashes=%d fails=%d lost=%d\n b: joules=%v horizon=%v crashes=%d fails=%d lost=%d",
			a.TotalJoules, a.Horizon, a.Crashes, a.TaskFailures, a.MapOutputsLost,
			b.TotalJoules, b.Horizon, b.Crashes, b.TaskFailures, b.MapOutputsLost)
	}
}

// TestGoldenDeterminismAcrossSchedulers repeats the golden harness for
// every scheduler family — the recovery paths thread through scheduler
// callbacks (OnTaskComplete, OnControlTick), so each policy gets its own
// bit-identity check.
func TestGoldenDeterminismAcrossSchedulers(t *testing.T) {
	jobs := workload.Batch(workload.Grep, 5, 1280, 2, 30*time.Second)
	makers := map[string]func() mapreduce.Scheduler{
		"FIFO": func() mapreduce.Scheduler { return sched.NewFIFO() },
		"Fair": func() mapreduce.Scheduler { return sched.NewFair() },
		"LATE": func() mapreduce.Scheduler { return sched.NewLATE() },
		"E-Ant": func() mapreduce.Scheduler {
			return core.MustNewEAnt(core.DefaultParams())
		},
	}
	for name, mk := range makers {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			a := run(t, replayCluster(), mk(), faultyConfig(11), jobs)
			b := run(t, replayCluster(), mk(), faultyConfig(11), jobs)
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s: stats differ across identical faulty runs (joules %v vs %v, horizon %v vs %v)",
					name, a.TotalJoules, b.TotalJoules, a.Horizon, b.Horizon)
			}
		})
	}
}

func TestSeedChangesOutcomeWithNoise(t *testing.T) {
	cfg := mapreduce.DefaultConfig()
	cfg.Noise = noise.Default()
	jobs := workload.Batch(workload.Grep, 4, 640, 2, 30*time.Second)

	cfg.Seed = 1
	a := run(t, smallCluster(), sched.NewFair(), cfg, jobs)
	cfg.Seed = 2
	b := run(t, smallCluster(), sched.NewFair(), cfg, jobs)
	if a.TotalJoules == b.TotalJoules {
		t.Error("different seeds produced identical energy under noise")
	}
}

func TestMultiJobFairSharing(t *testing.T) {
	cfg := mapreduce.DefaultConfig()
	jobs := []workload.JobSpec{
		workload.NewJobSpec(0, workload.Wordcount, 3200, 2, 0),
		workload.NewJobSpec(1, workload.Grep, 3200, 2, 0),
	}
	stats := run(t, smallCluster(), sched.NewFair(), cfg, jobs)
	if len(stats.Jobs) != 2 {
		t.Fatalf("finished %d jobs, want 2", len(stats.Jobs))
	}
}

func TestHorizonCutsRunShort(t *testing.T) {
	cfg := mapreduce.DefaultConfig()
	c := smallCluster()
	d, err := mapreduce.NewDriver(c, sched.NewFIFO(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	jobs := []workload.JobSpec{workload.NewJobSpec(0, workload.Wordcount, 64000, 8, 0)}
	stats, err := d.Run(jobs, 2*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Horizon != 2*time.Minute {
		t.Errorf("horizon = %v, want 2m", stats.Horizon)
	}
	if len(stats.Jobs) != 0 {
		t.Error("huge job reported finished within tiny horizon")
	}
	if stats.TotalJoules <= 0 {
		t.Error("no energy metered up to horizon")
	}
}

func TestForcedLocalFraction(t *testing.T) {
	for _, frac := range []float64{0, 1} {
		cfg := mapreduce.DefaultConfig()
		cfg.ForcedLocalFraction = frac
		jobs := []workload.JobSpec{workload.NewJobSpec(0, workload.Wordcount, 6400, 2, 0)}
		stats := run(t, smallCluster(), sched.NewFIFO(), cfg, jobs)
		if got := stats.LocalityFraction(); math.Abs(got-frac) > 1e-9 {
			t.Errorf("forced %v, measured locality %v", frac, got)
		}
	}
}

func TestLocalityAffectsJobTime(t *testing.T) {
	// Map-only job: reduce start times are heartbeat-quantized and would
	// mask small map-phase differences.
	mk := func(frac float64) time.Duration {
		cfg := mapreduce.DefaultConfig()
		cfg.ForcedLocalFraction = frac
		jobs := []workload.JobSpec{workload.NewJobSpec(0, workload.Wordcount, 6400, 0, 0)}
		stats := run(t, smallCluster(), sched.NewFIFO(), cfg, jobs)
		return stats.Jobs[0].CompletionTime()
	}
	local, remote := mk(1), mk(0)
	if local >= remote {
		t.Errorf("fully-local job (%v) not faster than fully-remote (%v)", local, remote)
	}
}

func TestMapOnlyJob(t *testing.T) {
	cfg := mapreduce.DefaultConfig()
	jobs := []workload.JobSpec{workload.NewJobSpec(0, workload.Grep, 640, 0, 0)}
	stats := run(t, smallCluster(), sched.NewFIFO(), cfg, jobs)
	if len(stats.Jobs) != 1 {
		t.Fatal("map-only job did not finish")
	}
	if got := stats.Jobs[0].ReduceSeconds(); got != 0 {
		t.Errorf("map-only job has reduce span %v", got)
	}
}

func TestSingleMachineDegenerateCluster(t *testing.T) {
	c := cluster.MustNew(cluster.Group{Spec: cluster.SpecAtom, Count: 1})
	cfg := mapreduce.DefaultConfig()
	jobs := []workload.JobSpec{workload.NewJobSpec(0, workload.Wordcount, 320, 1, 0)}
	stats := run(t, c, sched.NewFair(), cfg, jobs)
	if len(stats.Jobs) != 1 {
		t.Fatal("job did not finish on single-machine cluster")
	}
	if got := stats.LocalityFraction(); got != 1 {
		t.Errorf("single machine locality = %v, want 1", got)
	}
}

func TestStragglerNoiseStretchesRuntime(t *testing.T) {
	jobs := []workload.JobSpec{workload.NewJobSpec(0, workload.Wordcount, 3200, 2, 0)}
	quiet := mapreduce.DefaultConfig()
	base := run(t, smallCluster(), sched.NewFIFO(), quiet, jobs)

	noisy := mapreduce.DefaultConfig()
	noisy.Noise = noise.Config{StragglerProb: 1, StragglerMin: 3, StragglerMax: 3}
	slow := run(t, smallCluster(), sched.NewFIFO(), noisy, jobs)

	if slow.Jobs[0].CompletionTime() < base.Jobs[0].CompletionTime()*2 {
		t.Errorf("3× stragglers: completion %v vs base %v, want ≥ 2× slower",
			slow.Jobs[0].CompletionTime(), base.Jobs[0].CompletionTime())
	}
}

func TestRunValidation(t *testing.T) {
	d, err := mapreduce.NewDriver(smallCluster(), sched.NewFIFO(), mapreduce.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(nil, -1); err == nil {
		t.Error("empty job list accepted")
	}
	bad := []workload.JobSpec{{ID: 0, App: workload.Wordcount, InputMB: -1}}
	if _, err := d.Run(bad, -1); err == nil {
		t.Error("invalid job accepted")
	}
}

// TestRunBoundsLocalityIndex checks that a job whose replica entries
// would overflow the locality index's int32 links is rejected before
// placement allocates anything: at 3 replicas per block that is
// any job of more than MaxInt32/3 maps, which JobSpec.Validate accepts.
func TestRunBoundsLocalityIndex(t *testing.T) {
	d, err := mapreduce.NewDriver(smallCluster(), sched.NewFIFO(), mapreduce.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	spec := workload.NewJobSpec(1, workload.Grep, workload.BlockMB*(math.MaxInt32/3+1), 0, 0)
	if err := spec.Validate(); err != nil {
		t.Fatalf("spec of %d maps invalid: %v", spec.NumMaps, err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = d.Run([]workload.JobSpec{spec}, -1)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatalf("a job of %d maps × 3 replicas ran", spec.NumMaps)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("rejecting a job of %d maps allocated %d bytes", spec.NumMaps, grew)
	}
}

// TestRunBoundsMixTotals checks that the int32 bounds hold for the whole
// mix, whose jobs share one locality-entry array and one pending-entry
// array: two jobs that each fit are rejected together, before placement
// or the arena allocates anything, when their replica entries or their
// tasks overflow, each by the bound it breaks. The tasks case runs on one
// machine, whose stride of one replica per block keeps its maps' replica
// entries within their bound.
func TestRunBoundsMixTotals(t *testing.T) {
	half := workload.BlockMB * (math.MaxInt32/hdfs.Replication/2 + 1)
	for _, c := range []struct {
		name  string
		fleet *cluster.Cluster
		jobs  []workload.JobSpec
		// bound is a phrase of the error that names the broken bound.
		bound string
	}{
		{"maps × replicas", smallCluster(), []workload.JobSpec{
			workload.NewJobSpec(1, workload.Grep, half, 0, 0),
			workload.NewJobSpec(2, workload.Grep, half, 0, 0),
		}, "replicas in one run"},
		{"tasks", cluster.MustNew(cluster.Group{Spec: cluster.SpecDesktop, Count: 1}), []workload.JobSpec{
			workload.NewJobSpec(1, workload.Grep, workload.BlockMB*(math.MaxInt32-10), 0, 0),
			workload.NewJobSpec(2, workload.Grep, workload.BlockMB, 20, 0),
		}, "tasks in one run"},
	} {
		t.Run(c.name, func(t *testing.T) {
			d, err := mapreduce.NewDriver(c.fleet, sched.NewFIFO(), mapreduce.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			stride := min(hdfs.Replication, c.fleet.Size())
			for _, spec := range c.jobs {
				if err := spec.Validate(); err != nil {
					t.Fatalf("job %d invalid: %v", spec.ID, err)
				}
				if spec.NumMaps*stride > math.MaxInt32 || spec.NumMaps+spec.NumReduces > math.MaxInt32 {
					t.Fatalf("job %d alone overflows: %d maps, %d reduces", spec.ID, spec.NumMaps, spec.NumReduces)
				}
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err = d.Run(c.jobs, -1)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatalf("a mix of %d + %d maps at stride %d ran", c.jobs[0].NumMaps, c.jobs[1].NumMaps, stride)
			}
			if !strings.Contains(err.Error(), c.bound) {
				t.Errorf("rejected with %q, want the bound on %q", err, c.bound)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
				t.Errorf("rejecting the mix allocated %d bytes", grew)
			}
		})
	}
}

func TestNewDriverValidation(t *testing.T) {
	if _, err := mapreduce.NewDriver(smallCluster(), nil, mapreduce.DefaultConfig()); err == nil {
		t.Error("nil scheduler accepted")
	}
	cfg := mapreduce.DefaultConfig()
	cfg.Noise = noise.Config{DurationCV: -1}
	if _, err := mapreduce.NewDriver(smallCluster(), sched.NewFIFO(), cfg); err == nil {
		t.Error("invalid noise config accepted")
	}
}

// TestTimelineRecordsControlTicks: every control interval closes with a
// control_tick event carrying the fleet energy, which never decreases.
func TestTimelineRecordsControlTicks(t *testing.T) {
	var ticks []probe.Event
	cfg := mapreduce.DefaultConfig()
	cfg.ControlInterval = time.Minute
	cfg.Probe = collect(probe.KindControlTick, &ticks)
	jobs := []workload.JobSpec{workload.NewJobSpec(0, workload.Wordcount, 12800, 4, 0)}
	stats := run(t, smallCluster(), sched.NewFair(), cfg, jobs)
	if len(ticks) == 0 {
		t.Fatal("no control ticks recorded")
	}
	for i, ev := range ticks {
		if want := time.Duration(i+1) * cfg.ControlInterval; ev.At != want {
			t.Errorf("tick %d at %v, want %v", i, ev.At, want)
		}
		if i > 0 && ev.A < ticks[i-1].A {
			t.Error("control-tick energy not monotone")
		}
	}
	if last := ticks[len(ticks)-1].A; last > stats.TotalJoules {
		t.Errorf("last tick read %v J, more than the run's %v J", last, stats.TotalJoules)
	}
}

func TestCompletedTallies(t *testing.T) {
	cfg := mapreduce.DefaultConfig()
	jobs := []workload.JobSpec{workload.NewJobSpec(0, workload.Grep, 640, 2, 0)}
	stats := run(t, smallCluster(), sched.NewFIFO(), cfg, jobs)

	totalByType := 0
	for _, name := range []string{"Desktop", "T420"} {
		totalByType += stats.CompletedByTypeApp(name, workload.Grep)
	}
	if totalByType != 12 {
		t.Errorf("type/app tally = %d, want 12", totalByType)
	}
	maps := stats.CompletedByTypeKind("Desktop", mapreduce.MapTask) +
		stats.CompletedByTypeKind("T420", mapreduce.MapTask)
	if maps != 10 {
		t.Errorf("map tally = %d, want 10", maps)
	}
	tasks := 0
	for k, pair := range stats.Energy {
		if k.App == workload.Grep {
			tasks += pair.Tasks
			if pair.EstJoules <= 0 {
				t.Errorf("energy cell %+v = %+v", k, pair)
			}
		}
	}
	if tasks != 12 {
		t.Errorf("Grep energy cells hold %d tasks, want 12", tasks)
	}
}
