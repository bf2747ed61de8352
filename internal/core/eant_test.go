package core_test

import (
	"testing"
	"time"

	"eant/internal/cluster"
	"eant/internal/core"
	"eant/internal/mapreduce"
	"eant/internal/noise"
	"eant/internal/probe"
	"eant/internal/sched"
	"eant/internal/sim"
	"eant/internal/workload"
)

func runSched(t *testing.T, c *cluster.Cluster, s mapreduce.Scheduler, jobs []workload.JobSpec, seed int64) *mapreduce.Stats {
	t.Helper()
	cfg := mapreduce.DefaultConfig()
	// Scaled-down tasks need proportionally faster policy refreshes than
	// the paper's 5 min interval for real-size tasks.
	cfg.ControlInterval = 30 * time.Second
	cfg.Seed = seed
	cfg.Noise = noise.Default()
	d, err := mapreduce.NewDriver(c, s, cfg)
	if err != nil {
		t.Fatalf("NewDriver: %v", err)
	}
	stats, err := d.Run(jobs, 24*time.Hour)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return stats
}

func mixedJobs(n int) []workload.JobSpec {
	apps := workload.Apps()
	jobs := make([]workload.JobSpec, 0, n)
	for i := 0; i < n; i++ {
		jobs = append(jobs, workload.NewJobSpec(i, apps[i%len(apps)], 3200, 4,
			time.Duration(i)*10*time.Second))
	}
	return jobs
}

func TestEAntName(t *testing.T) {
	if core.MustNewEAnt(core.DefaultParams()).Name() != "E-Ant" {
		t.Error("Name mismatch")
	}
}

func TestNewEAntValidatesParams(t *testing.T) {
	bad := core.DefaultParams()
	bad.Rho = 7
	if _, err := core.NewEAnt(bad); err == nil {
		t.Error("invalid params accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNewEAnt did not panic on invalid params")
		}
	}()
	core.MustNewEAnt(bad)
}

func TestEAntCompletesMixedWorkload(t *testing.T) {
	stats := runSched(t, cluster.Testbed(), core.MustNewEAnt(core.DefaultParams()), mixedJobs(9), 1)
	if len(stats.Jobs) != 9 {
		t.Fatalf("E-Ant finished %d/9 jobs", len(stats.Jobs))
	}
	if stats.TasksDone() == 0 || stats.TotalJoules <= 0 {
		t.Error("empty run stats")
	}
}

func TestEAntSavesEnergyVersusFair(t *testing.T) {
	// The headline claim (Fig. 8a): heterogeneity-aware assignment cuts
	// fleet energy on the MSD-style workload. Individual seeds are noisy
	// (the campaign tail is straggler-dominated), so compare means over a
	// few seeds.
	var fairJ, eantJ float64
	const seeds = 3
	for seed := int64(1); seed <= seeds; seed++ {
		jobs, err := workload.GenerateMSD(
			workload.MSDConfig{Jobs: 40, Scale: 64, MeanInterarrival: 30 * time.Second},
			sim.NewRNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		fairJ += runSched(t, cluster.Testbed(), sched.NewFair(), jobs, seed).TotalJoules
		eantJ += runSched(t, cluster.Testbed(), core.MustNewEAnt(core.DefaultParams()), jobs, seed).TotalJoules
	}
	if eantJ >= fairJ {
		t.Errorf("E-Ant mean energy %.0f J not below Fair %.0f J", eantJ/seeds, fairJ/seeds)
	}
	t.Logf("E-Ant saving vs Fair over %d seeds: %.1f%%", seeds, 100*(1-eantJ/fairJ))
}

func TestEAntDoesNotWreckJobPerformance(t *testing.T) {
	// Fig. 8c: once converged, E-Ant's completion times stay comparable
	// to Fair's (the paper shows E-Ant at or below Fair's JCT, with a few
	// jobs slightly slower in exchange for energy savings).
	jobs := mixedJobs(45)
	fair := runSched(t, cluster.Testbed(), sched.NewFair(), jobs, 5)
	eant := runSched(t, cluster.Testbed(), core.MustNewEAnt(core.DefaultParams()), jobs, 5)

	var fairSum, eantSum float64
	for _, r := range fair.Jobs {
		fairSum += r.CompletionTime().Seconds()
	}
	for _, r := range eant.Jobs {
		eantSum += r.CompletionTime().Seconds()
	}
	fairMean := fairSum / float64(len(fair.Jobs))
	eantMean := eantSum / float64(len(eant.Jobs))
	if eantMean > fairMean*1.35 {
		t.Errorf("E-Ant mean JCT %.0fs more than 35%% worse than Fair %.0fs", eantMean, fairMean)
	}
	t.Logf("mean JCT: E-Ant %.0fs vs Fair %.0fs", eantMean, fairMean)
}

func TestEAntAffinityMatchesWorkloadsToMachines(t *testing.T) {
	// Fig. 9a: under a mixed workload E-Ant segregates task types by
	// comparative energy advantage — CPU-bound Wordcount concentrates on
	// the compute-dense T420s (their shallow power slope makes them the
	// Eq. 2 winners for it), relative to the heterogeneity-oblivious Fair
	// assignment.
	jobs := mixedJobs(45)
	eant := runSched(t, cluster.Testbed(), core.MustNewEAnt(core.DefaultParams()), jobs, 7)
	fair := runSched(t, cluster.Testbed(), sched.NewFair(), jobs, 7)

	// Fraction of a machine type's completed tasks that are Wordcount.
	wcFrac := func(s *mapreduce.Stats, machineType string) float64 {
		total := 0
		for _, app := range workload.Apps() {
			total += s.CompletedByTypeApp(machineType, app)
		}
		if total == 0 {
			return 0
		}
		return float64(s.CompletedByTypeApp(machineType, workload.Wordcount)) / float64(total)
	}
	eT420, fT420 := wcFrac(eant, "T420"), wcFrac(fair, "T420")
	if eT420 <= fT420 {
		t.Errorf("E-Ant T420 Wordcount fraction %.3f not above Fair's %.3f", eT420, fT420)
	}
	// And the Atom, worst for Wordcount, carries less of it than the T420.
	if wcFrac(eant, "Atom") >= eT420 {
		t.Errorf("Atom WC fraction %.3f not below T420's %.3f", wcFrac(eant, "Atom"), eT420)
	}
	t.Logf("T420 Wordcount fraction: E-Ant %.3f vs Fair %.3f (Atom %.3f)",
		eT420, fT420, wcFrac(eant, "Atom"))
}

func TestEAntGreedyAblationRuns(t *testing.T) {
	p := core.DefaultParams()
	p.Greedy = true
	stats := runSched(t, cluster.Testbed(), core.MustNewEAnt(p), mixedJobs(6), 13)
	if len(stats.Jobs) != 6 {
		t.Fatalf("greedy E-Ant finished %d/6 jobs", len(stats.Jobs))
	}
}

func TestEAntBetaZeroDisablesLocalityPriority(t *testing.T) {
	// Locality enters E-Ant through colony *selection* (η = ∞ in Eq. 7),
	// so the lever only shows with many competing small jobs: each job
	// holds blocks on only a few machines, and β = 0 stops steering those
	// jobs toward their data.
	jobs := workload.Batch(workload.Grep, 40, 320, 1, 0) // 5 maps each
	p := core.DefaultParams()
	p.Beta = 0
	zero := runSched(t, cluster.Testbed(), core.MustNewEAnt(p), jobs, 17)
	def := runSched(t, cluster.Testbed(), core.MustNewEAnt(core.DefaultParams()), jobs, 17)
	if zero.LocalityFraction() >= def.LocalityFraction() {
		t.Errorf("β=0 locality %.3f not below β=0.1 locality %.3f",
			zero.LocalityFraction(), def.LocalityFraction())
	}
	t.Logf("locality: β=0 %.3f vs β=0.1 %.3f", zero.LocalityFraction(), def.LocalityFraction())
}

func TestEAntExchangeOffStillCompletes(t *testing.T) {
	p := core.DefaultParams()
	p.MachineExchange = false
	p.JobExchange = false
	p.NegativeFeedback = false
	stats := runSched(t, cluster.Testbed(), core.MustNewEAnt(p), mixedJobs(6), 19)
	if len(stats.Jobs) != 6 {
		t.Fatalf("no-exchange E-Ant finished %d/6 jobs", len(stats.Jobs))
	}
}

// tickGrab is E-Ant that keeps the context of its last control tick.
type tickGrab struct {
	*core.EAnt
	ctx *mapreduce.Context
}

func (g *tickGrab) OnControlTick(ctx *mapreduce.Context) {
	g.ctx = ctx
	g.EAnt.OnControlTick(ctx)
}

// TestTrailProbedTickCopiesEachRowOnce pins the cost of a Trails-probed
// control tick: the probe's copy of each colony's row is the only
// allocation, so a tick allocates at most one slice per trail_row event.
func TestTrailProbedTickCopiesEachRowOnce(t *testing.T) {
	rows := 0
	pr := probe.New(probe.Config{Trails: true, Sink: func(ev probe.Event) {
		if ev.Kind == probe.KindTrailRow {
			rows++
		}
	}})
	g := &tickGrab{EAnt: core.MustNewEAnt(core.DefaultParams())}
	cfg := mapreduce.DefaultConfig()
	cfg.ControlInterval = 30 * time.Second
	cfg.Probe = pr
	d, err := mapreduce.NewDriver(cluster.Testbed(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Cut the run while jobs are active, so the matrix holds live colonies.
	if _, err := d.Run(mixedJobs(6), 5*time.Minute); err != nil {
		t.Fatal(err)
	}
	if g.ctx == nil {
		t.Fatal("no control tick in the run")
	}
	rows = 0
	g.EAnt.OnControlTick(g.ctx)
	perTick := rows
	if perTick == 0 {
		t.Fatal("a probed tick recorded no trail_row event")
	}
	allocs := testing.AllocsPerRun(20, func() { g.EAnt.OnControlTick(g.ctx) })
	if allocs > float64(perTick) {
		t.Errorf("a probed control tick allocates %.0f times for %d trail rows", allocs, perTick)
	}
}
