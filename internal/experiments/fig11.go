package experiments

import (
	"fmt"
	"time"

	"eant/internal/cluster"
	"eant/internal/core"
	"eant/internal/mapreduce"
	"eant/internal/metrics"
	"eant/internal/parallel"
	"eant/internal/probe"
	"eant/internal/tabwrite"
	"eant/internal/workload"
)

// TrailTolerance is the stability criterion for the search-speed studies:
// a colony's assignment policy has converged once its (mean-1 normalized)
// pheromone row changes by less than this mean absolute amount per
// machine between consecutive control intervals. It is the trail-level
// equivalent of the paper's "80 % of tasks revisit the same machines".
const TrailTolerance = 0.08

// convergenceInterval is the control interval for the search-speed
// studies — shorter than the default so jobs span many policy updates.
const convergenceInterval = 20 * time.Second

// Fig11Row is one homogeneity level and the measured convergence time.
type Fig11Row struct {
	Count       int // homogeneous machines (11a) or jobs (11b)
	Convergence time.Duration
	Converged   int // how many seeds produced a converged probe
}

// Fig11Result holds a search-speed series.
type Fig11Result struct {
	Label string
	Rows  []Fig11Row
}

// colonyTrail is one colony's pheromone row at each control tick of a run.
type colonyTrail struct {
	times []time.Duration
	rows  [][]float64
}

// job0MapTrail builds a run's probe whose sink keeps the trail rows of job
// 0's map colony, whose application is app.
func job0MapTrail(app workload.App) (*probe.Probe, *colonyTrail) {
	tr := new(colonyTrail)
	label := app.String()
	p := foldProbe(true, func(ev probe.Event) {
		if ev.Kind == probe.KindTrailRow && ev.JobID == 0 && ev.TaskKind == int8(mapreduce.MapTask) && ev.Label == label {
			tr.times = append(tr.times, ev.At)
			tr.rows = append(tr.rows, ev.Row)
		}
	})
	return p, tr
}

// Fig11a reproduces the machine-heterogeneity impact on search speed: a
// single long Wordcount job on clusters with 1, 2, 3 and 8 desktops
// (plus a fixed heterogeneous background), measuring the time until the
// job's map-assignment policy stabilizes. More homogeneous machines give
// the machine-level exchange more samples per interval, so the trails
// settle sooner despite system noise.
func Fig11a() (*Fig11Result, error) {
	res := &Fig11Result{Label: "homogeneous machines"}
	levels := []int{1, 2, 3, 8}
	const seeds = 5
	// Each (level, seed) cell builds its own cluster and scheduler and runs
	// independently; aggregation below preserves the sequential seed order.
	cells, err := parallel.Map(len(levels)*seeds, 0, func(i int) (convProbe, error) {
		k := levels[i/seeds]
		seed := int64(i%seeds) + 1
		c := cluster.MustNew(
			cluster.Group{Spec: cluster.SpecDesktop, Count: k},
			cluster.Group{Spec: cluster.SpecT420, Count: 2},
			cluster.Group{Spec: cluster.SpecT110, Count: 2},
			cluster.Group{Spec: cluster.SpecAtom, Count: 1},
		)
		// The homogeneous group under study is the desktops (IDs 0..k-1 by
		// construction order); stability is measured on their trail
		// entries — the question is how fast the policy for *that* group
		// settles as the machine-level exchange gains samples.
		group := make([]int, k)
		for g := range group {
			group[g] = g
		}
		cfg := defaultDriverConfig()
		cfg.Seed = seed
		cfg.ControlInterval = convergenceInterval
		var trail *colonyTrail
		cfg.Probe, trail = job0MapTrail(workload.Wordcount)
		// 800 map tasks: many waves across every fleet size.
		jobs := []workload.JobSpec{workload.NewJobSpec(0, workload.Wordcount, 800*workload.BlockMB, 8, 0)}
		if _, err := (Campaign{Cluster: c, Sched: SchedEAnt, Params: core.DefaultParams(), Jobs: jobs, Config: cfg}).Run(); err != nil {
			return convProbe{}, fmt.Errorf("fig11a: k=%d: %w", k, err)
		}
		var p convProbe
		p.At, p.OK = metrics.TrailConvergenceOn(trail.times, trail.rows, group, TrailTolerance)
		return p, nil
	})
	if err != nil {
		return nil, err
	}
	for li, k := range levels {
		res.Rows = append(res.Rows, convRow(k, cells[li*seeds:(li+1)*seeds]))
	}
	return res, nil
}

// convProbe is one seed's convergence measurement.
type convProbe struct {
	At time.Duration
	OK bool
}

// convRow averages the converged probes of one homogeneity level.
func convRow(count int, probes []convProbe) Fig11Row {
	var sum time.Duration
	converged := 0
	for _, p := range probes {
		if p.OK {
			sum += p.At
			converged++
		}
	}
	row := Fig11Row{Count: count, Converged: converged}
	if converged > 0 {
		row.Convergence = sum / time.Duration(converged)
	}
	return row
}

// Fig11b reproduces the workload-homogeneity impact on search speed: n
// identical Grep jobs competing inside a fixed heterogeneous background
// (Wordcount and Terasort jobs). The job-level exchange pools the Grep
// colonies' experiences, and as n grows the group's share of the
// cluster's completed-task feedback grows with it, so the pooled trail
// settles sooner.
func Fig11b() (*Fig11Result, error) {
	res := &Fig11Result{Label: "homogeneous jobs"}
	levels := []int{10, 20, 30, 40}
	const seeds = 5
	cells, err := parallel.Map(len(levels)*seeds, 0, func(i int) (convProbe, error) {
		n := levels[i/seeds]
		seed := int64(i%seeds) + 1
		cfg := defaultDriverConfig()
		cfg.Seed = seed
		cfg.ControlInterval = convergenceInterval
		// Probe job 0's map colony; with job-level exchange its trail
		// pools all n Grep jobs' experiences.
		var trail *colonyTrail
		cfg.Probe, trail = job0MapTrail(workload.Grep)
		// n Grep probes (IDs 0..n-1) against a fixed 30-job mixed
		// background that keeps the cluster contended.
		jobs := workload.Batch(workload.Grep, n, 50*workload.BlockMB, 2, 0)
		for b := 0; b < 30; b++ {
			app := workload.Wordcount
			if b%2 == 1 {
				app = workload.Terasort
			}
			jobs = append(jobs, workload.NewJobSpec(n+b, app, 50*workload.BlockMB, 2, 0))
		}
		if _, err := (Campaign{Cluster: cluster.Testbed(), Sched: SchedEAnt, Params: core.DefaultParams(), Jobs: jobs, Config: cfg}).Run(); err != nil {
			return convProbe{}, fmt.Errorf("fig11b: n=%d: %w", n, err)
		}
		var p convProbe
		p.At, p.OK = metrics.TrailConvergence(trail.times, trail.rows, TrailTolerance)
		return p, nil
	})
	if err != nil {
		return nil, err
	}
	for li, n := range levels {
		res.Rows = append(res.Rows, convRow(n, cells[li*seeds:(li+1)*seeds]))
	}
	return res, nil
}

// Decreasing reports whether convergence time improves from the first to
// the last homogeneity level (the figures' claim).
func (r *Fig11Result) Decreasing() bool {
	if len(r.Rows) < 2 {
		return false
	}
	first, last := r.Rows[0], r.Rows[len(r.Rows)-1]
	if first.Converged == 0 || last.Converged == 0 {
		return false
	}
	return last.Convergence <= first.Convergence
}

// Table renders the series.
func (r *Fig11Result) Table() *tabwrite.Table {
	t := tabwrite.New(
		fmt.Sprintf("Fig 11 — convergence time vs number of %s", r.Label),
		fmt.Sprintf("# %s", r.Label), "convergence", "runs converged")
	for _, row := range r.Rows {
		conv := "-"
		if row.Converged > 0 {
			conv = row.Convergence.Round(time.Second).String()
		}
		t.AddRow(row.Count, conv, row.Converged)
	}
	return t
}
