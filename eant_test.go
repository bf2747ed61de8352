package eant

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"eant/internal/cluster"
	"eant/internal/mapreduce"
	"eant/internal/sched"
	"eant/internal/workload"
)

func quickSpec(s Scheduler) RunSpec {
	return RunSpec{
		Cluster:   PaperTestbed(),
		Scheduler: s,
		Jobs:      MSDWorkload(10, 1),
		Seed:      1,
	}
}

func TestRunCompletesAllJobs(t *testing.T) {
	for _, s := range Schedulers() {
		s := s
		t.Run(string(s), func(t *testing.T) {
			r, err := Run(quickSpec(s))
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if r.JobsCompleted != 10 {
				t.Errorf("completed %d/10 jobs", r.JobsCompleted)
			}
			if r.TotalJoules <= 0 || r.Makespan <= 0 {
				t.Error("empty result")
			}
			if len(r.TypeJoules) == 0 || len(r.TypeUtilization) == 0 {
				t.Error("missing per-type aggregates")
			}
			if r.Stats == nil {
				t.Error("missing Stats")
			}
		})
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(RunSpec{Scheduler: SchedulerFair, Jobs: MSDWorkload(1, 1)}); err == nil {
		t.Error("nil cluster accepted")
	}
	if _, err := Run(RunSpec{Cluster: PaperTestbed(), Scheduler: SchedulerFair}); err == nil {
		t.Error("empty jobs accepted")
	}
	spec := quickSpec("Mystery")
	if _, err := Run(spec); err == nil {
		t.Error("unknown scheduler accepted")
	}
	bad := DefaultEAntParams()
	bad.Rho = 5
	spec = quickSpec(SchedulerEAnt)
	spec.EAntParams = &bad
	if _, err := Run(spec); err == nil {
		t.Error("invalid E-Ant params accepted")
	}
}

// TestRunRejectsSubHeartbeatControlInterval checks that a control interval
// shorter than the heartbeat is refused before the run starts; a 1 ns
// interval on the testbed used to run without end.
func TestRunRejectsSubHeartbeatControlInterval(t *testing.T) {
	spec := RunSpec{Cluster: PaperTestbed(), Scheduler: SchedulerEAnt, Jobs: MSDWorkload(6, 1), ControlInterval: time.Nanosecond}
	if _, err := Run(spec); err == nil {
		t.Error("1 ns control interval accepted")
	}
}

// TestRunRejectsNonFiniteInputs feeds NaN, infinite and overflowing
// values through a RunSpec. Each must be rejected with an error before the
// run starts, instead of panicking in the engine, stalling E-Ant or
// reporting non-finite energy.
func TestRunRejectsNonFiniteInputs(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	noise := func(set func(*NoiseConfig)) func(*RunSpec) {
		return func(s *RunSpec) {
			n := DefaultNoise()
			set(&n)
			s.Noise = &n
		}
	}
	params := func(set func(*EAntParams)) func(*RunSpec) {
		return func(s *RunSpec) {
			p := DefaultEAntParams()
			set(&p)
			s.EAntParams = &p
		}
	}
	cases := []struct {
		name string
		set  func(*RunSpec)
	}{
		{"DurationCV NaN", noise(func(n *NoiseConfig) { n.DurationCV = nan })},
		{"DurationCV +Inf", noise(func(n *NoiseConfig) { n.DurationCV = inf })},
		{"DurationCV square overflows", noise(func(n *NoiseConfig) { n.DurationCV = 1e155 })},
		{"MeasurementCV NaN", noise(func(n *NoiseConfig) { n.MeasurementCV = nan })},
		{"StragglerProb NaN", noise(func(n *NoiseConfig) { n.StragglerProb = nan })},
		{"StragglerMax +Inf", noise(func(n *NoiseConfig) { n.StragglerMax = inf })},
		{"SleepWatts NaN", func(s *RunSpec) { s.Consolidation = &Consolidation{SleepWatts: nan} }},
		{"SleepWatts +Inf", func(s *RunSpec) { s.Consolidation = &Consolidation{SleepWatts: inf} }},
		{"TaskFailProb NaN", func(s *RunSpec) { s.Faults = &FaultConfig{TaskFailProb: nan} }},
		{"Rho NaN", params(func(p *EAntParams) { p.Rho = nan })},
		{"Gamma NaN", params(func(p *EAntParams) { p.Gamma = nan })},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := quickSpec(SchedulerEAnt)
			tc.set(&spec)
			if _, err := Run(spec); err == nil {
				t.Error("Run accepted the spec")
			}
		})
	}
}

// FuzzRunSpec drives Run, the public entry point, with generated specs:
// the fuzz inputs pick the scheduler (an unknown name included), the seed,
// one to four MSD jobs, default, no or extreme noise, crash, attempt
// failure, blacklist and retry settings, consolidation with its idle
// timeout, the control interval, the horizon, and E-Ant's ρ, β, γ and
// accept floor, valid or not. Run must not panic; an error must carry
// the "eant: " prefix; a finished run must report finite, non-negative
// energy and no more completed jobs than it was given.
func FuzzRunSpec(f *testing.F) {
	nan := math.NaN()
	f.Add(uint8(0), int64(1), uint8(1), uint8(0), uint8(0), uint8(0), int64(0), int64(0), 0.5, 0.1, 4.0, 0.05)
	for i := range Schedulers() {
		f.Add(uint8(i), int64(i), uint8(3), uint8(2), uint8(0x0f), uint8(0x15), int64(10*time.Second), int64(0), 0.5, 0.1, 4.0, 0.05)
		f.Add(uint8(i), int64(i), uint8(2), uint8(1), uint8(0x03), uint8(0x01), int64(0), int64(2*time.Minute), 0.2, 0.4, 1.0, 0.0)
	}
	f.Add(uint8(len(Schedulers())), int64(1), uint8(0), uint8(0), uint8(0), uint8(0), int64(0), int64(0), 0.5, 0.1, 4.0, 0.05)
	f.Add(uint8(0), int64(1), uint8(0), uint8(0), uint8(0), uint8(0), int64(time.Nanosecond), int64(0), 0.5, 0.1, 4.0, 0.05)
	f.Add(uint8(0), int64(1), uint8(0), uint8(0), uint8(0), uint8(0), int64(0), int64(0), 5.0, 0.1, 4.0, 0.05)
	f.Add(uint8(0), int64(1), uint8(0), uint8(0), uint8(0), uint8(0), int64(0), int64(0), 0.5, 1e300, nan, 2.0)
	f.Fuzz(func(t *testing.T, sched uint8, seed int64, jobs, noiseSel, faultSel, consSel uint8,
		interval, horizon int64, rho, beta, gamma, floor float64) {
		names := append(Schedulers(), "Mystery")
		params := DefaultEAntParams()
		params.Rho, params.Beta, params.Gamma, params.AcceptFloor = rho, beta, gamma, floor
		spec := RunSpec{
			Cluster:         PaperTestbed(),
			Scheduler:       names[int(sched)%len(names)],
			EAntParams:      &params,
			Jobs:            MSDWorkload(1+int(jobs)%4, seed),
			Seed:            seed,
			ControlInterval: time.Duration(interval),
			Horizon:         time.Duration(horizon),
		}
		switch noiseSel % 3 {
		case 1:
			off := NoNoise()
			spec.Noise = &off
		case 2:
			spec.Noise = &NoiseConfig{DurationCV: 10, StragglerProb: 1, StragglerMin: 1, StragglerMax: 50, MeasurementCV: 10}
		}
		if faultSel != 0 {
			faults := FaultConfig{}
			if faultSel&1 != 0 {
				faults.MachineMTBF = 20 * time.Minute
			}
			if faultSel&2 != 0 {
				faults.TaskFailProb = 0.1
			}
			if faultSel&4 != 0 {
				faults.BlacklistThreshold = 1
			}
			if faultSel&8 != 0 {
				faults.MaxAttempts = 1
			}
			spec.Faults = &faults
		}
		if consSel&1 != 0 {
			spec.Consolidation = &Consolidation{IdleTimeout: time.Duration(consSel>>1) * time.Second}
		}
		r, err := Run(spec)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "eant: ") {
				t.Fatalf("error without the eant: prefix: %v", err)
			}
			return
		}
		if math.IsNaN(r.TotalJoules) || math.IsInf(r.TotalJoules, 0) || r.TotalJoules < 0 {
			t.Errorf("TotalJoules %v", r.TotalJoules)
		}
		if r.JobsCompleted > len(spec.Jobs) {
			t.Errorf("%d jobs completed of %d", r.JobsCompleted, len(spec.Jobs))
		}
	})
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(quickSpec(SchedulerEAnt))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(quickSpec(SchedulerEAnt))
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalJoules != b.TotalJoules || a.Makespan != b.Makespan {
		t.Errorf("identical specs diverged: %v/%v vs %v/%v",
			a.TotalJoules, a.Makespan, b.TotalJoules, b.Makespan)
	}
}

func TestMSDWorkloadShape(t *testing.T) {
	jobs := MSDWorkload(87, 7)
	if len(jobs) != 87 {
		t.Fatalf("generated %d jobs", len(jobs))
	}
	for _, j := range jobs {
		if err := j.Validate(); err != nil {
			t.Fatalf("invalid job: %v", err)
		}
	}
}

func TestMSDWorkloadPanicsBelowOneJob(t *testing.T) {
	for _, jobs := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("MSDWorkload(%d, 1) did not panic", jobs)
				}
			}()
			MSDWorkload(jobs, 1)
		}()
	}
}

func TestNewJobAndCustomCluster(t *testing.T) {
	specs := MachineSpecs()
	if len(specs) == 0 {
		t.Fatal("empty catalog")
	}
	c, err := NewCluster(
		ClusterGroup{Spec: specs[0], Count: 2},
	)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	r, err := Run(RunSpec{
		Cluster:   c,
		Scheduler: SchedulerFIFO,
		Jobs:      []Job{NewJob(0, Wordcount, 640, 2, 0)},
		Noise:     ptr(NoNoise()),
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if r.JobsCompleted != 1 {
		t.Error("job did not complete")
	}
}

// TestNewClusterRejectsOversizedFleet checks that the public constructor
// surfaces cluster.New's fleet-size bound unchanged.
func TestNewClusterRejectsOversizedFleet(t *testing.T) {
	spec := MachineSpecs()[0]
	groups := []ClusterGroup{{Spec: spec, Count: math.MaxInt}, {Spec: spec, Count: math.MaxInt}}
	_, err := NewCluster(groups...)
	_, want := cluster.New(cluster.Group{Spec: spec, Count: math.MaxInt}, cluster.Group{Spec: spec, Count: math.MaxInt})
	if err == nil || want == nil || err.Error() != want.Error() {
		t.Errorf("NewCluster error %v, cluster.New error %v; want the same non-nil error", err, want)
	}
}

// TestRunRejectsOversizedJob checks that Run surfaces the driver's bound
// on a run's replica entries (Σ maps × replication ≤ MaxInt32) unchanged.
func TestRunRejectsOversizedJob(t *testing.T) {
	job := NewJob(1, Grep, workload.BlockMB*(math.MaxInt32/3+1), 0, 0)
	_, err := Run(RunSpec{Cluster: PaperTestbed(), Scheduler: SchedulerFIFO, Jobs: []Job{job}})
	d, derr := mapreduce.NewDriver(PaperTestbed(), sched.NewFIFO(), mapreduce.DefaultConfig())
	if derr != nil {
		t.Fatal(derr)
	}
	_, want := d.Run([]workload.JobSpec{job}, -1)
	if err == nil || want == nil || errors.Unwrap(err).Error() != want.Error() {
		t.Errorf("Run error %v, driver error %v; want the same non-nil error", err, want)
	}
}

// TestRunManyReportsLowestFailingSpec checks RunMany's error contract: the
// error of the lowest-index failing spec, wrapped once, whether that spec
// fails its checks (nil cluster, no jobs) or fails in the driver while a
// later spec would fail its checks.
func TestRunManyReportsLowestFailingSpec(t *testing.T) {
	dup := MSDWorkload(6, 12)
	dup[4].ID = dup[1].ID
	placing := RunSpec{Cluster: PaperTestbed(), Scheduler: SchedulerFair, Jobs: dup, Seed: 12}
	noCluster := quickSpec(SchedulerFair)
	noCluster.Cluster = nil
	noJobs := quickSpec(SchedulerFair)
	noJobs.Jobs = nil
	cases := []struct {
		name  string
		specs []RunSpec
		want  string
	}{
		{"driver error before nil cluster", []RunSpec{quickSpec(SchedulerFIFO), placing, noCluster}, "eant: mapreduce: placing job"},
		{"driver error before no jobs", []RunSpec{placing, noJobs}, "eant: mapreduce: placing job"},
		{"nil cluster before driver error", []RunSpec{noCluster, placing}, "eant: RunSpec.Cluster is required"},
		{"no jobs after a good spec", []RunSpec{quickSpec(SchedulerFIFO), noJobs}, "eant: RunSpec.Jobs is empty"},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 4} {
			_, err := RunMany(tc.specs, workers)
			if err == nil || !strings.HasPrefix(err.Error(), tc.want) || strings.Count(err.Error(), "eant: ") != 1 {
				t.Errorf("%s, %d workers: err = %v, want one %q prefix", tc.name, workers, err, tc.want)
			}
		}
	}
}

func TestRunHorizonCap(t *testing.T) {
	spec := quickSpec(SchedulerFair)
	spec.Horizon = time.Minute
	r, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if r.Makespan != time.Minute {
		t.Errorf("makespan = %v, want capped 1m", r.Makespan)
	}
}

func TestCompareProducesSavings(t *testing.T) {
	spec := RunSpec{
		Cluster: PaperTestbed(),
		Jobs:    MSDWorkload(20, 3),
		Seed:    3,
	}
	results, savings, err := Compare(spec, SchedulerEAnt, SchedulerFair)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results", len(results))
	}
	if _, ok := savings[SchedulerFair]; !ok {
		t.Error("no saving computed vs Fair")
	}
}

// TestCompareReturnsRunManyError checks that Compare passes RunMany's
// error on as it is: the same text with one "eant: " prefix, and the same
// cause under errors.Unwrap, both for a spec that fails its checks and for
// one that fails in the driver.
func TestCompareReturnsRunManyError(t *testing.T) {
	dup := MSDWorkload(6, 12)
	dup[4].ID = dup[1].ID
	for _, spec := range []RunSpec{
		{Jobs: MSDWorkload(2, 1)},
		{Cluster: PaperTestbed(), Jobs: dup, Seed: 12},
	} {
		_, _, err := Compare(spec, SchedulerFair)
		spec.Scheduler = SchedulerFair
		_, want := RunMany([]RunSpec{spec}, 0)
		if err == nil || want == nil || err.Error() != want.Error() {
			t.Fatalf("Compare error %v, RunMany error %v; want the same non-nil error", err, want)
		}
		if n := strings.Count(err.Error(), "eant: "); n != 1 {
			t.Errorf("Compare error %q has %d eant prefixes, want 1", err, n)
		}
		got, cause := errors.Unwrap(err), errors.Unwrap(want)
		if (got == nil) != (cause == nil) || got != nil && got.Error() != cause.Error() {
			t.Errorf("errors.Unwrap of the Compare error is %v, of the RunMany error %v", got, cause)
		}
	}
}

func ptr[T any](v T) *T { return &v }

func TestRunWithConsolidation(t *testing.T) {
	jobs := MSDWorkload(8, 2)
	// Double the arrival spacing so lulls exist.
	for i := range jobs {
		jobs[i].Submit *= 3
	}
	base := RunSpec{Cluster: PaperTestbed(), Scheduler: SchedulerEAnt, Jobs: jobs, Seed: 2}
	plain, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	cons := base
	cons.Consolidation = &Consolidation{}
	saved, err := Run(cons)
	if err != nil {
		t.Fatal(err)
	}
	if saved.Stats.Sleeps == 0 {
		t.Error("no machines slept under consolidation")
	}
	if saved.TotalJoules >= plain.TotalJoules {
		t.Errorf("consolidated %v J not below always-on %v J",
			saved.TotalJoules, plain.TotalJoules)
	}
	if saved.JobsCompleted != plain.JobsCompleted {
		t.Errorf("job counts differ: %d vs %d", saved.JobsCompleted, plain.JobsCompleted)
	}
}
