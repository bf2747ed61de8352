package mapreduce_test

import (
	"reflect"
	"testing"
	"time"

	"eant/internal/cluster"
	"eant/internal/fault"
	"eant/internal/mapreduce"
	"eant/internal/probe"
	"eant/internal/sched"
	"eant/internal/workload"
)

// checkClusterQuiescent asserts no slot or utilization leaked through the
// crash/retry paths: after a run every machine must hold zero tasks and
// zero task CPU share. (Gross leaks panic inside Release*, but a missed
// release would only show up here.)
func checkClusterQuiescent(t *testing.T, c *cluster.Cluster) {
	t.Helper()
	for _, m := range c.Machines() {
		if m.Running() != 0 {
			t.Errorf("%s still holds %d tasks after the run", m, m.Running())
		}
		if m.Utilization() > 1e-9 {
			t.Errorf("%s still has utilization %v after the run", m, m.Utilization())
		}
	}
}

func TestScriptedCrashAndRecovery(t *testing.T) {
	cfg := mapreduce.DefaultConfig()
	cfg.Fault = fault.Config{Scenario: []fault.Event{
		{At: 30 * time.Second, Machine: 0, Kind: fault.Crash},
		{At: 3 * time.Minute, Machine: 0, Kind: fault.Recover},
	}}
	c := smallCluster()
	jobs := []workload.JobSpec{workload.NewJobSpec(0, workload.Wordcount, 6400, 2, 0)}
	stats := run(t, c, sched.NewFIFO(), cfg, jobs)

	if stats.Crashes != 1 || stats.Recoveries != 1 {
		t.Errorf("crashes/recoveries = %d/%d, want 1/1", stats.Crashes, stats.Recoveries)
	}
	if len(stats.Jobs) != 1 || stats.Jobs[0].Failed {
		t.Fatalf("job did not survive the crash: %+v", stats.Jobs)
	}
	if !c.Machine(0).Available() {
		t.Error("machine 0 not repaired after scripted recovery")
	}
	checkClusterQuiescent(t, c)
}

func TestCrashOutsideFleetIsSkipped(t *testing.T) {
	cfg := mapreduce.DefaultConfig()
	cfg.Fault = fault.Config{Scenario: []fault.Event{
		{At: time.Second, Machine: 99, Kind: fault.Crash},
	}}
	c := smallCluster()
	jobs := []workload.JobSpec{workload.NewJobSpec(0, workload.Grep, 640, 1, 0)}
	stats := run(t, c, sched.NewFIFO(), cfg, jobs)
	if stats.Crashes != 0 {
		t.Errorf("out-of-range scripted crash fired: %d crashes", stats.Crashes)
	}
}

func TestAttemptFailuresRetryToCompletion(t *testing.T) {
	cfg := mapreduce.DefaultConfig()
	cfg.Seed = 3
	cfg.Fault = fault.Config{TaskFailProb: 0.3, MaxAttempts: 50}
	c := smallCluster()
	jobs := []workload.JobSpec{workload.NewJobSpec(0, workload.Terasort, 3200, 3, 0)}
	stats := run(t, c, sched.NewFIFO(), cfg, jobs)

	if stats.TaskFailures == 0 {
		t.Fatal("30% attempt-failure probability produced no failures")
	}
	if stats.JobsFailed != 0 || len(stats.Jobs) != 1 || stats.Jobs[0].Failed {
		t.Errorf("job should retry through failures: failed=%d results=%+v", stats.JobsFailed, stats.Jobs)
	}
	// Every logical task still completed exactly once.
	if got, want := stats.TasksDone(), 50+3; got != want {
		t.Errorf("TasksDone = %d, want %d", got, want)
	}
	checkClusterQuiescent(t, c)
}

func TestJobFailsWhenRetryBudgetExhausted(t *testing.T) {
	cfg := mapreduce.DefaultConfig()
	cfg.Fault = fault.Config{TaskFailProb: 1, MaxAttempts: 2}
	c := smallCluster()
	jobs := []workload.JobSpec{workload.NewJobSpec(0, workload.Wordcount, 640, 1, 0)}
	stats := run(t, c, sched.NewFIFO(), cfg, jobs)

	if stats.JobsFailed != 1 {
		t.Fatalf("JobsFailed = %d, want 1", stats.JobsFailed)
	}
	if len(stats.Jobs) != 1 || !stats.Jobs[0].Failed {
		t.Fatalf("failed job not recorded: %+v", stats.Jobs)
	}
	if stats.Jobs[0].Finished <= 0 {
		t.Error("failed job has no failure instant")
	}
	// The driver must stop at the failure, not idle to the horizon.
	if stats.Horizon != stats.Jobs[0].Finished {
		t.Errorf("run horizon %v != failure instant %v", stats.Horizon, stats.Jobs[0].Finished)
	}
	checkClusterQuiescent(t, c)
}

func TestLostMapOutputsAreReexecuted(t *testing.T) {
	// First run a healthy reference to learn when the map barrier passes,
	// then crash a machine mid-reduce: completed maps hosted there must be
	// re-executed (Hadoop 1.x keeps map output on the mapper's local disk)
	// and the job must still finish, later than the reference.
	jobs := []workload.JobSpec{workload.NewJobSpec(0, workload.Terasort, 6400, 2, 0)}
	ref := run(t, smallCluster(), sched.NewFIFO(), mapreduce.DefaultConfig(), jobs)
	r := ref.Jobs[0]
	crashAt := r.MapsDoneAt + (r.Finished-r.MapsDoneAt)/4
	if crashAt <= r.MapsDoneAt {
		t.Fatalf("degenerate reference timeline: %+v", r)
	}

	cfg := mapreduce.DefaultConfig()
	cfg.Fault = fault.Config{Scenario: []fault.Event{
		{At: crashAt, Machine: 0, Kind: fault.Crash},
		{At: crashAt + 2*time.Minute, Machine: 0, Kind: fault.Recover},
	}}
	c := smallCluster()
	stats := run(t, c, sched.NewFIFO(), cfg, jobs)

	if stats.MapOutputsLost == 0 {
		t.Fatal("crash after the map barrier lost no map outputs")
	}
	if len(stats.Jobs) != 1 || stats.Jobs[0].Failed {
		t.Fatalf("job did not survive the output loss: %+v", stats.Jobs)
	}
	// Compute-phase reduces keep running through the barrier reopening, so
	// the faulty run can tie the healthy one — but never beat it.
	if stats.Jobs[0].Finished < r.Finished {
		t.Errorf("faulty run finished early: %v < healthy %v", stats.Jobs[0].Finished, r.Finished)
	}
	// Re-executed maps complete again, so the tally exceeds the task count.
	if want := 100 + 2 + stats.MapOutputsLost; stats.TasksDone() != want {
		t.Errorf("TasksDone = %d, want %d (incl. %d re-executed maps)",
			stats.TasksDone(), want, stats.MapOutputsLost)
	}
	checkClusterQuiescent(t, c)
}

func TestMapOnlyJobIgnoresOutputLoss(t *testing.T) {
	// A map-only job writes straight to replicated HDFS: crashing a machine
	// after its maps completed must not re-execute anything.
	jobs := []workload.JobSpec{workload.NewJobSpec(0, workload.Grep, 1280, 0, 0)}
	ref := run(t, smallCluster(), sched.NewFIFO(), mapreduce.DefaultConfig(), jobs)

	cfg := mapreduce.DefaultConfig()
	cfg.Fault = fault.Config{Scenario: []fault.Event{
		{At: ref.Jobs[0].Finished / 2, Machine: 1, Kind: fault.Crash},
	}}
	stats := run(t, smallCluster(), sched.NewFIFO(), cfg, jobs)
	if stats.MapOutputsLost != 0 {
		t.Errorf("map-only job re-executed %d outputs", stats.MapOutputsLost)
	}
	if len(stats.Jobs) != 1 {
		t.Fatal("map-only job did not finish")
	}
}

func TestBlacklistBenchesFailingMachine(t *testing.T) {
	cfg := mapreduce.DefaultConfig()
	cfg.Seed = 5
	cfg.Fault = fault.Config{
		TaskFailProb:       0.4,
		MaxAttempts:        100,
		BlacklistThreshold: 3,
		BlacklistCooldown:  time.Minute,
	}
	c := smallCluster()
	jobs := []workload.JobSpec{workload.NewJobSpec(0, workload.Terasort, 6400, 2, 0)}
	stats := run(t, c, sched.NewFIFO(), cfg, jobs)

	if stats.Blacklists == 0 {
		t.Fatal("40% failure probability never tripped the blacklist")
	}
	if len(stats.Jobs) != 1 || stats.Jobs[0].Failed {
		t.Fatalf("job did not complete around blacklisting: %+v", stats.Jobs)
	}
	checkClusterQuiescent(t, c)
}

func TestCrashedMachineDrawsNoPower(t *testing.T) {
	// While a machine is down it draws no power and offers no slots: crash
	// machine 0 early in a long map-only job (no recovery) and its metered
	// energy must fall well below the healthy run's, while the survivors
	// shoulder its share and stretch the makespan.
	jobs := []workload.JobSpec{workload.NewJobSpec(0, workload.Wordcount, 3200, 0, 0)}
	healthy := run(t, smallCluster(), sched.NewFIFO(), mapreduce.DefaultConfig(), jobs)

	cfg := mapreduce.DefaultConfig()
	cfg.Fault = fault.Config{Scenario: []fault.Event{
		{At: 30 * time.Second, Machine: 0, Kind: fault.Crash},
	}}
	outage := run(t, smallCluster(), sched.NewFIFO(), cfg, jobs)

	if outage.Crashes != 1 {
		t.Fatalf("scripted crash did not fire: %d crashes", outage.Crashes)
	}
	if len(outage.Jobs) != 1 || outage.Jobs[0].Failed {
		t.Fatalf("job did not survive the permanent outage: %+v", outage.Jobs)
	}
	if outage.MachineJoules[0] >= healthy.MachineJoules[0] {
		t.Errorf("dead machine still drawing power: %v J >= healthy %v J",
			outage.MachineJoules[0], healthy.MachineJoules[0])
	}
	if outage.Horizon <= healthy.Horizon {
		t.Errorf("losing a machine was free: outage makespan %v <= healthy %v",
			outage.Horizon, healthy.Horizon)
	}
}

func TestFaultConfigValidationSurfaces(t *testing.T) {
	cfg := mapreduce.DefaultConfig()
	cfg.Fault = fault.Config{TaskFailProb: 1.5}
	if _, err := mapreduce.NewDriver(smallCluster(), sched.NewFIFO(), cfg); err == nil {
		t.Error("invalid fault config accepted by NewDriver")
	}
}

// idleFaultRun drives the small fleet with no work up to horizon — its one
// job is submitted an hour past the horizon — and returns the
// crash/recover transitions the probe saw in firing order plus the
// driver, for its engine counters and stats.
func idleFaultRun(t *testing.T, fc fault.Config, seed int64, horizon time.Duration) ([]fault.Event, *mapreduce.Driver, *mapreduce.Stats) {
	t.Helper()
	var states []probe.Event
	cfg := mapreduce.DefaultConfig()
	cfg.Seed = seed
	cfg.Fault = fc
	cfg.Probe = collect(probe.KindMachineState, &states)
	d, err := mapreduce.NewDriver(smallCluster(), sched.NewFIFO(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.EnableInvariantChecks(func(err error) { t.Fatal(err) })
	jobs := []workload.JobSpec{workload.NewJobSpec(0, workload.Grep, 64, 0, horizon+time.Hour)}
	stats, err := d.Run(jobs, horizon)
	if err != nil {
		t.Fatal(err)
	}
	var timeline []fault.Event
	for _, ev := range states {
		switch ev.Label {
		case "crash":
			timeline = append(timeline, fault.Event{At: ev.At, Machine: int(ev.MachineID), Kind: fault.Crash})
		case "recover":
			timeline = append(timeline, fault.Event{At: ev.At, Machine: int(ev.MachineID), Kind: fault.Recover})
		}
	}
	return timeline, d, stats
}

func TestDisabledFaultsScheduleNothing(t *testing.T) {
	// Secondary knobs alone leave faults disabled: the run fires exactly
	// its heartbeats and control ticks, and leaves exactly those two
	// chains plus the far submission pending at the horizon.
	timeline, d, stats := idleFaultRun(t, fault.Config{MachineMTTR: time.Minute, MaxAttempts: 2}, 7, time.Hour)
	if len(timeline) != 0 || stats.Crashes != 0 || stats.Recoveries != 0 {
		t.Errorf("disabled faults fired %v (%d crashes, %d recoveries)", timeline, stats.Crashes, stats.Recoveries)
	}
	// One heartbeat at 0 s and every Heartbeat up to 3600 s; control ticks
	// every 5 min up to 60 min.
	heartbeats, ticks := int(time.Hour/mapreduce.Heartbeat)+1, 12
	if got := d.Engine().Fired(); got != uint64(heartbeats+ticks) {
		t.Errorf("fired %d events, want %d heartbeats + %d control ticks", got, heartbeats, ticks)
	}
	if got := d.Engine().Pending(); got != 3 {
		t.Errorf("Pending = %d at the horizon, want 3 (heartbeat, control tick, submission)", got)
	}
}

func TestStochasticFaultTimeline(t *testing.T) {
	fc := fault.Config{MachineMTBF: 10 * time.Minute, MachineMTTR: 2 * time.Minute}
	a, _, stats := idleFaultRun(t, fc, 7, 4*time.Hour)
	if len(a) == 0 {
		t.Fatal("4h at 10m MTBF produced no crashes")
	}
	if stats.Crashes+stats.Recoveries != len(a) {
		t.Errorf("probe saw %d transitions, stats count %d crashes + %d recoveries", len(a), stats.Crashes, stats.Recoveries)
	}
	if b, _, _ := idleFaultRun(t, fc, 7, 4*time.Hour); !reflect.DeepEqual(a, b) {
		t.Errorf("same seed diverged: %d vs %d transitions", len(a), len(b))
	}
	if c, _, _ := idleFaultRun(t, fc, 8, 4*time.Hour); reflect.DeepEqual(a, c) {
		t.Error("different seeds produced identical timelines")
	}
	// Per machine the process must start with a crash and alternate crash,
	// recover, crash, ...
	last := map[int]fault.EventKind{}
	for _, ev := range a {
		prev, seen := last[ev.Machine]
		if !seen && ev.Kind != fault.Crash {
			t.Fatalf("machine %d began with %v", ev.Machine, ev.Kind)
		}
		if seen && prev == ev.Kind {
			t.Fatalf("machine %d fired %v twice in a row", ev.Machine, ev.Kind)
		}
		last[ev.Machine] = ev.Kind
	}
	if len(last) != smallCluster().Size() {
		t.Errorf("%d of %d machines crashed in 4h at 10m MTBF", len(last), smallCluster().Size())
	}
}

func TestScriptedEventsFireInOrderAndSkipOutOfRange(t *testing.T) {
	fc := fault.Config{Scenario: []fault.Event{
		{At: 3 * time.Minute, Machine: 1, Kind: fault.Recover},
		{At: time.Minute, Machine: 1, Kind: fault.Crash},
		{At: 2 * time.Minute, Machine: 99, Kind: fault.Crash}, // beyond the fleet
		// Same instant: fires in configured order, crash before recover.
		{At: 2 * time.Minute, Machine: 2, Kind: fault.Crash},
		{At: 2 * time.Minute, Machine: 2, Kind: fault.Recover},
	}}
	got, _, _ := idleFaultRun(t, fc, 1, time.Hour)
	want := []fault.Event{
		{At: time.Minute, Machine: 1, Kind: fault.Crash},
		{At: 2 * time.Minute, Machine: 2, Kind: fault.Crash},
		{At: 2 * time.Minute, Machine: 2, Kind: fault.Recover},
		{At: 3 * time.Minute, Machine: 1, Kind: fault.Recover},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("scripted timeline = %v, want %v", got, want)
	}
}
