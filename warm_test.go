package eant

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"eant/internal/experiments"
)

// warmCase is one sweep shape run two ways: cold (a fresh world per spec,
// via Run) and warm (one Runner, reset in place between specs). The cases
// mirror the experiment families behind the cmd/eantsim goldens — the
// fig8 scheduler sweep, the fig11 convergence/workload sweeps, the fig12
// parameter sweeps, and the failures experiment — plus consolidation and
// a horizon cut, so every driver subsystem the goldens exercise is also
// proven bit-identical under reuse, and one mix rerun with its seed or
// its covering set changed, which decides whether HDFS placement is
// restored or drawn.
type warmCase struct {
	name  string
	specs []RunSpec
	// probed attaches a fully-enabled probe, its sink writing the JSON
	// Lines stream, to every run of the case; streams and reports must
	// match byte-for-byte between cold and warm.
	probed bool
}

func warmCases(cl *Cluster) []warmCase {
	base := func(s Scheduler, jobs int, seed int64) RunSpec {
		return RunSpec{Cluster: cl, Scheduler: s, Jobs: MSDWorkload(jobs, seed), Seed: seed}
	}
	var schedSweep []RunSpec
	for _, s := range Schedulers() {
		schedSweep = append(schedSweep, base(s, 10, 1))
	}
	var jobsSweep []RunSpec
	for _, jobs := range []int{5, 15, 30} {
		jobsSweep = append(jobsSweep, base(SchedulerEAnt, jobs, 2))
	}
	var betaSweep []RunSpec
	for _, beta := range []float64{0.05, 0.1, 0.3} {
		p := DefaultEAntParams()
		p.Beta = beta
		spec := base(SchedulerEAnt, 10, 3)
		spec.EAntParams = &p
		betaSweep = append(betaSweep, spec)
	}
	var intervalSweep []RunSpec
	for _, iv := range []time.Duration{15 * time.Second, 30 * time.Second, 60 * time.Second} {
		spec := base(SchedulerEAnt, 10, 4)
		spec.ControlInterval = iv
		intervalSweep = append(intervalSweep, spec)
	}
	faulty := base(SchedulerEAnt, 12, 5)
	faulty.Faults = &FaultConfig{
		MachineMTBF: 2 * time.Hour, MachineMTTR: 5 * time.Minute, TaskFailProb: 0.02,
	}
	faultyFair := faulty
	faultyFair.Scheduler = SchedulerFair
	consolidated := base(SchedulerEAnt, 10, 6)
	consolidated.Consolidation = &Consolidation{}
	cut := base(SchedulerEAnt, 20, 7)
	cut.Horizon = 8 * time.Minute
	records := base(SchedulerEAnt, 10, 8)
	records.KeepTaskRecords = true
	// Each mix is carved out of the arena the previous one left: smaller,
	// then larger but not the largest.
	shrinking := []RunSpec{base(SchedulerEAnt, 30, 9), base(SchedulerFair, 5, 9), base(SchedulerTarazu, 15, 9)}
	// One mix again and again with one placement input changed at a time:
	// the seed (1, 2, 1), then the covering set (consolidation on, off,
	// on). The namespace may restore its last placement only when every
	// input repeats, as in the warm-after-warm rerun.
	var seedChange, coveringChange []RunSpec
	for _, seed := range []int64{1, 2, 1} {
		spec := base(SchedulerEAnt, 10, 11)
		spec.Seed = seed
		seedChange = append(seedChange, spec)
	}
	for _, on := range []bool{true, false, true} {
		spec := base(SchedulerEAnt, 10, 12)
		if on {
			spec.Consolidation = &Consolidation{}
		}
		coveringChange = append(coveringChange, spec)
	}

	return []warmCase{
		{name: "scheduler_sweep", specs: schedSweep, probed: true},
		{name: "convergence", specs: []RunSpec{base(SchedulerEAnt, 30, 2)}},
		{name: "jobs_sweep", specs: jobsSweep},
		{name: "beta_sweep", specs: betaSweep},
		{name: "interval_sweep", specs: intervalSweep},
		{name: "failures", specs: []RunSpec{faulty, faultyFair}, probed: true},
		{name: "consolidation", specs: []RunSpec{consolidated}},
		{name: "horizon_cut", specs: []RunSpec{cut}},
		{name: "task_records", specs: []RunSpec{records}},
		{name: "shrinking_sweep", specs: shrinking},
		{name: "seed_change", specs: seedChange},
		{name: "covering_change", specs: coveringChange},
	}
}

// TestWarmEqualsCold is the warm-run contract: every run on a reused
// Runner produces a Stats record deeply equal to a cold Run of the same
// spec, and — with a fully-enabled probe attached — a byte-identical
// JSONL event stream and an equal histogram report. The cold reference
// for each spec executes on its own cluster clone; the warm runs share
// one Runner per case, cycling schedulers, parameters, fault and
// consolidation configs through the same world. Finally the first spec
// of each case is re-run warm after the whole sweep, proving resets
// compose (warm-after-warm, not just warm-after-cold).
func TestWarmEqualsCold(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-spec sweeps; skipped in -short mode")
	}
	cl := PaperTestbed()
	for _, c := range warmCases(cl) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			type output struct {
				res    *Result
				stream []byte
				report ProbeReport
			}
			runSpec := func(spec RunSpec, warm *Runner) output {
				t.Helper()
				var out output
				var buf *sweepStream
				if c.probed {
					spec.Probe, buf = newSweepProbe(t)
				}
				var err error
				if warm != nil {
					out.res, err = warm.Run(spec)
				} else {
					spec.Cluster = cl.Clone()
					out.res, err = Run(spec)
				}
				if err != nil {
					t.Fatal(err)
				}
				if c.probed {
					out.stream = buf.bytes(t)
					out.report = spec.Probe.Report()
				}
				return out
			}
			compare := func(i int, cold, warm output) {
				t.Helper()
				if !reflect.DeepEqual(cold.res.Stats, warm.res.Stats) {
					t.Errorf("spec %d: warm Stats diverged from cold: joules %v vs %v, makespan %v vs %v",
						i, warm.res.Stats.TotalJoules, cold.res.Stats.TotalJoules,
						warm.res.Stats.Horizon, cold.res.Stats.Horizon)
				}
				if !bytes.Equal(cold.stream, warm.stream) {
					t.Errorf("spec %d: warm probe JSONL stream differs from cold", i)
				}
				if !reflect.DeepEqual(cold.report, warm.report) {
					t.Errorf("spec %d: warm probe report differs from cold", i)
				}
			}

			colds := make([]output, len(c.specs))
			for i, spec := range c.specs {
				colds[i] = runSpec(spec, nil)
			}
			runner, err := NewRunner(cl)
			if err != nil {
				t.Fatal(err)
			}
			for i, spec := range c.specs {
				compare(i, colds[i], runSpec(spec, runner))
			}
			// Warm-after-warm: resetting back to the first spec after the
			// whole sweep must land on the same bytes again.
			compare(0, colds[0], runSpec(c.specs[0], runner))
		})
	}

	// The HDFS replica count is not a RunSpec field, so this case runs the
	// specs' campaigns directly: consecutive warm runs place one mix at
	// replica strides 3, 1 and 2, then at 3 again, each into the namespace
	// and arena the previous run left. Each changes the replica count, so
	// none may restore the placement before it.
	t.Run("replication_change", func(t *testing.T) {
		runner, err := NewRunner(cl)
		if err != nil {
			t.Fatal(err)
		}
		scheds := []Scheduler{SchedulerEAnt, SchedulerFair, SchedulerTarazu, SchedulerEAnt}
		for i, reps := range []int{3, 1, 2, 3} {
			c, err := specCampaign(RunSpec{Cluster: cl, Scheduler: scheds[i], Jobs: MSDWorkload(10, 10), Seed: 10})
			if err != nil {
				t.Fatal(err)
			}
			c.Config.Replication = reps
			warm, err := runner.world.Run(c)
			if err != nil {
				t.Fatal(err)
			}
			c.Cluster = cl.Clone()
			cold, err := experiments.RunAll([]experiments.Campaign{c}, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(cold[0], warm) {
				t.Errorf("run %d (replication %d): warm Stats diverged from cold: joules %v vs %v, local maps %d vs %d",
					i, reps, warm.TotalJoules, cold[0].TotalJoules, warm.LocalMaps, cold[0].LocalMaps)
			}
		}
	})
}

// TestWarmAfterFailedRun pins warm reuse across the error paths. One
// Runner first fails a run part-way — two jobs share an ID, so HDFS
// placement of the second fails after the earlier jobs were placed — then
// runs a horizon-cut spec, then the same jobs to completion (carved into
// the arena the cut run left).
// Each run after the failure must equal a cold Run of its spec: Stats
// deeply, probe stream byte for byte.
func TestWarmAfterFailedRun(t *testing.T) {
	cl := PaperTestbed()
	runner, err := NewRunner(cl)
	if err != nil {
		t.Fatal(err)
	}
	dup := MSDWorkload(6, 12)
	dup[4].ID = dup[1].ID
	failing := RunSpec{Scheduler: SchedulerEAnt, Jobs: dup, Seed: 12}
	failing.Probe, _ = newSweepProbe(t)
	if _, err := runner.Run(failing); err == nil || !strings.Contains(err.Error(), "already placed") {
		t.Fatalf("duplicate job IDs: err = %v, want an HDFS placement failure", err)
	}

	full := RunSpec{Scheduler: SchedulerEAnt, Jobs: MSDWorkload(20, 7), Seed: 7}
	cut := full
	cut.Horizon = 8 * time.Minute
	for _, spec := range []RunSpec{cut, full} {
		var warmBuf, coldBuf *sweepStream
		spec.Probe, warmBuf = newSweepProbe(t)
		warm, err := runner.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		spec.Cluster = cl.Clone()
		spec.Probe, coldBuf = newSweepProbe(t)
		cold, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cold.Stats, warm.Stats) {
			t.Errorf("horizon %v: warm Stats diverged from cold: joules %v vs %v, makespan %v vs %v",
				spec.Horizon, warm.Stats.TotalJoules, cold.Stats.TotalJoules, warm.Stats.Horizon, cold.Stats.Horizon)
		}
		if !bytes.Equal(coldBuf.bytes(t), warmBuf.bytes(t)) {
			t.Errorf("horizon %v: warm probe stream differs from cold", spec.Horizon)
		}
	}
}

// TestRunnerReuseParallel drives the RunMany warm path: a grid of specs
// over one shared cluster fans out across four workers, each reusing its
// own Runner, and every cell must match a cold sequential Run. Under
// `go test -race` this is the data-race check for per-worker world reuse.
func TestRunnerReuseParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-cell sweep; skipped in -short mode")
	}
	shared := PaperTestbed()
	var specs []RunSpec
	for _, jobs := range []int{5, 12, 20} {
		for _, s := range []Scheduler{SchedulerEAnt, SchedulerFair, SchedulerTarazu} {
			specs = append(specs, RunSpec{
				Cluster:   shared,
				Scheduler: s,
				Jobs:      MSDWorkload(jobs, 11),
				Seed:      11,
			})
		}
	}
	par, err := RunMany(specs, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, spec := range specs {
		spec.Cluster = shared.Clone()
		seq, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(par[i].Stats, seq.Stats) {
			t.Errorf("cell %d (%s, %d jobs): warm parallel run diverged from cold sequential",
				i, spec.Scheduler, len(spec.Jobs))
		}
	}
}

// TestRunManyKeepsWorldsAcrossCalls drives the world pool: two goroutines
// each call RunMany three times, concurrently, on two clusters, so worlds
// pass from one call to the next, between the workers of concurrent calls,
// and to calls over the other cluster, which must drop them. Each mix runs
// under three policies back to back, so workers also restore placements.
// Every result must deep-equal a cold Run of its spec. Under `go test
// -race` this is the data-race check for worlds kept across calls.
func TestRunManyKeepsWorldsAcrossCalls(t *testing.T) {
	clusters := []*Cluster{PaperTestbed(), scaledTestbed(t, 1)}
	specs := make([][]RunSpec, len(clusters))
	colds := make([][]*Result, len(clusters))
	for c, cl := range clusters {
		for i, jobs := range []int{8, 6} {
			for _, s := range []Scheduler{SchedulerEAnt, SchedulerFair, SchedulerTarazu} {
				seed := int64(13 + i)
				specs[c] = append(specs[c], RunSpec{Cluster: cl, Scheduler: s, Jobs: MSDWorkload(jobs, seed), Seed: seed})
			}
		}
		for _, spec := range specs[c] {
			spec.Cluster = cl.Clone()
			cold, err := Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			colds[c] = append(colds[c], cold)
		}
	}
	var wg sync.WaitGroup
	for c := range clusters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for call := 0; call < 3; call++ {
				warm, err := RunMany(specs[c], 2)
				if err != nil {
					t.Error(err)
					return
				}
				for i := range warm {
					if !reflect.DeepEqual(warm[i].Stats, colds[c][i].Stats) {
						t.Errorf("cluster %d, call %d, spec %d: pooled run diverged from cold", c, call, i)
					}
				}
			}
		}()
	}
	wg.Wait()
}

func TestRunnerValidation(t *testing.T) {
	if _, err := NewRunner(nil); err == nil {
		t.Error("nil cluster accepted")
	}
	r, err := NewRunner(PaperTestbed())
	if err != nil {
		t.Fatal(err)
	}
	jobs := MSDWorkload(2, 1)
	if _, err := r.Run(RunSpec{Cluster: PaperTestbed(), Scheduler: SchedulerFair, Jobs: jobs}); err == nil {
		t.Error("foreign cluster accepted")
	}
	if _, err := r.Run(RunSpec{Scheduler: SchedulerFair}); err == nil {
		t.Error("empty jobs accepted")
	}
	if _, err := r.Run(RunSpec{Scheduler: "Mystery", Jobs: jobs}); err == nil {
		t.Error("unknown scheduler accepted")
	}
	// A nil spec.Cluster means "the Runner's own world".
	if _, err := r.Run(RunSpec{Scheduler: SchedulerFair, Jobs: jobs}); err != nil {
		t.Errorf("nil-cluster spec rejected: %v", err)
	}
}

// TestWarmRunAllocsBounded is the measured allocation contract (DESIGN.md
// §16): on a warm Runner, a run's heap allocations do not grow with its
// heartbeats, offers, tasks or control ticks. Every policy runs plain,
// with faults, with consolidation, and as churn: faults with blacklisting
// plus consolidation, which keeps the driver's sleep and blacklist-expiry
// queues busy, so they must be storage that Reset retains. Each testbed
// case makes at least 16 000 offers, completes 6 000 tasks and spans
// about 200 control ticks and 680 heartbeat sweeps, so one allocation per
// tick, sweep, offer or task breaks the bound. The cross-mix cases
// alternate two different job mixes, plain and as churn, so each run is
// carved out of the arena the other mix left; one allocation per job or
// per retry breaks the bound there. The 1024-machine E-Ant cell adds the
// fleet-wide warm reset, where one allocation per machine breaks it. Each
// speculative clone is one Task by design (Context.CloneForSpeculation),
// so clones are subtracted: they scale with stragglers, not offers. The
// opt-in recording paths (probe, KeepTaskRecords) allocate by design and
// are not in the table.
func TestWarmRunAllocsBounded(t *testing.T) {
	const bound = 100
	// A case's specs run in turn, once each per measured call; its counts
	// are means per run.
	type allocCase struct {
		name  string
		specs []RunSpec
	}
	testbed := PaperTestbed()
	variants := []struct {
		name string
		set  func(*RunSpec)
	}{
		{"plain", func(*RunSpec) {}},
		{"faults", func(s *RunSpec) {
			s.Faults = &FaultConfig{MachineMTBF: 2 * time.Hour, MachineMTTR: 5 * time.Minute, TaskFailProb: 0.02}
		}},
		{"consolidation", func(s *RunSpec) { s.Consolidation = &Consolidation{} }},
		{"churn", func(s *RunSpec) {
			s.Faults = &FaultConfig{MachineMTBF: 2 * time.Hour, MachineMTTR: 5 * time.Minute, TaskFailProb: 0.02, BlacklistThreshold: 3}
			s.Consolidation = &Consolidation{}
		}},
	}
	var cases []allocCase
	for _, s := range Schedulers() {
		spec := func(jobs int, seed int64, set func(*RunSpec)) RunSpec {
			spec := RunSpec{
				Cluster:         testbed,
				Scheduler:       s,
				Jobs:            MSDWorkload(jobs, seed),
				Seed:            seed,
				ControlInterval: 10 * time.Second,
			}
			set(&spec)
			return spec
		}
		for _, v := range variants {
			cases = append(cases, allocCase{string(s) + "/" + v.name, []RunSpec{spec(30, 1, v.set)}})
		}
		for _, v := range []int{0, 3} { // plain, churn
			cases = append(cases, allocCase{string(s) + "/" + variants[v].name + "-cross-mix",
				[]RunSpec{spec(30, 1, variants[v].set), spec(20, 2, variants[v].set)}})
		}
	}
	// BenchmarkScale's machines=1024/jobs=5 cell.
	cases = append(cases, allocCase{"E-Ant/machines=1024/jobs=5", []RunSpec{{
		Cluster:   scaledTestbed(t, 64),
		Scheduler: SchedulerEAnt,
		Jobs:      MSDWorkload(5, 7),
		Seed:      7,
	}}})

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			runner, err := NewRunner(c.specs[0].Cluster)
			if err != nil {
				t.Fatal(err)
			}
			for _, spec := range c.specs { // prime: build + first runs
				if _, err := runner.Run(spec); err != nil {
					t.Fatal(err)
				}
			}
			var clones, offers, maps int
			allocs := testing.AllocsPerRun(2, func() {
				clones, offers, maps = 0, 0, 0
				for _, spec := range c.specs {
					res, err := runner.Run(spec)
					if err != nil {
						t.Fatal(err)
					}
					clones += res.Stats.SpeculativeStarted
					offers += res.Stats.MapOffers + res.Stats.ReduceOffers
					maps += res.Stats.TotalMaps
				}
			})
			runs := float64(len(c.specs))
			allocs /= runs
			perRun := func(n int) float64 { return float64(n) / runs }
			t.Logf("%.0f allocs per warm run, %.1f speculative clones, %.0f offers, %.0f maps",
				allocs, perRun(clones), perRun(offers), perRun(maps))
			if allocs-perRun(clones) > bound {
				t.Errorf("warm run allocates %.0f times (%.1f of them speculative clones); the bound is %d plus one per clone",
					allocs, perRun(clones), bound)
			}
		})
	}
}
