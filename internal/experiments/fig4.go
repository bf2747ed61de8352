package experiments

import (
	"fmt"

	"eant/internal/cluster"
	"eant/internal/mapreduce"
	"eant/internal/metrics"
	"eant/internal/noise"
	"eant/internal/parallel"
	"eant/internal/tabwrite"
	"eant/internal/workload"
)

// Fig4Row is the energy-model accuracy of one (machine, application)
// pair: the recorded (true marginal) energy vs the Eq. 2 estimate summed
// over the job's tasks, with the per-task NRMSE.
type Fig4Row struct {
	Machine     string
	App         workload.App
	Tasks       int
	RecordedKJ  float64
	EstimatedKJ float64
	NRMSE       float64
}

// Fig4Result holds the model-validation grid. The paper reports NRMSE of
// 7.9 % (Wordcount), 10.5 % (Terasort) and 11.6 % (Grep).
type Fig4Result struct{ Rows []Fig4Row }

// Fig4 reproduces the energy-model validation: run each benchmark on a
// desktop and on a Xeon E5 server with system noise active, and compare
// per-task recorded energy against the Eq. 2 estimates the TaskTrackers
// report.
func Fig4() (*Fig4Result, error) {
	specs := []*cluster.TypeSpec{cluster.SpecDesktop, cluster.SpecXeonE5}
	apps := workload.Apps()
	rows, err := parallel.Map(len(specs)*len(apps), 0, func(i int) (Fig4Row, error) {
		spec := specs[i/len(apps)]
		app := apps[i%len(apps)]
		c := cluster.MustNew(cluster.Group{Spec: spec, Count: 1})
		cfg := defaultDriverConfig()
		cfg.Noise = noise.Default()
		cfg.KeepTaskRecords = true
		cfg.ForcedLocalFraction = 1
		// ~3 GB input: enough tasks for a stable error estimate.
		jobs := []workload.JobSpec{workload.NewJobSpec(0, app, 3072, 2, 0)}
		stats, err := Campaign{
			Cluster: c, Sched: SchedFIFO, Jobs: jobs, Config: cfg,
		}.Run()
		if err != nil {
			return Fig4Row{}, fmt.Errorf("fig4: %s/%v: %w", spec.Name, app, err)
		}
		var rec, est []float64
		var recSum, estSum float64
		for _, t := range stats.Tasks {
			rec = append(rec, t.TrueJoules)
			est = append(est, t.EstJoules)
			recSum += t.TrueJoules
			estSum += t.EstJoules
		}
		nrmse, err := metrics.NRMSE(rec, est)
		if err != nil {
			return Fig4Row{}, fmt.Errorf("fig4: %w", err)
		}
		return Fig4Row{
			Machine:     spec.Name,
			App:         app,
			Tasks:       len(rec),
			RecordedKJ:  recSum / 1000,
			EstimatedKJ: estSum / 1000,
			NRMSE:       nrmse,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Fig4Result{Rows: rows}, nil
}

// MaxNRMSE returns the worst error across the grid.
func (r *Fig4Result) MaxNRMSE() float64 {
	worst := 0.0
	for _, row := range r.Rows {
		if row.NRMSE > worst {
			worst = row.NRMSE
		}
	}
	return worst
}

// Table renders the Fig. 4 validation grid.
func (r *Fig4Result) Table() *tabwrite.Table {
	t := tabwrite.New("Fig 4 — energy model accuracy (paper NRMSE: WC 7.9%, TS 10.5%, Grep 11.6%)",
		"machine", "app", "tasks", "recorded KJ", "estimated KJ", "NRMSE %")
	for _, row := range r.Rows {
		t.AddRow(row.Machine, row.App.String(), row.Tasks,
			tabwrite.Cell(row.RecordedKJ, 1), tabwrite.Cell(row.EstimatedKJ, 1),
			tabwrite.Cell(100*row.NRMSE, 1))
	}
	return t
}

// Fig7Point is one completed task's estimated energy, in completion order.
type Fig7Point struct {
	TaskID    int
	EstJoules float64
}

// Fig7Result is the per-task energy scatter under system noise.
type Fig7Result struct {
	Points []Fig7Point
	Median float64
	Max    float64
}

// Fig7 reproduces the system-noise scatter: per-task energy estimates of a
// Wordcount job on one Xeon server (the paper uses a T420), noise active.
// The paper's plot shows a ~1 KJ median with transient spikes near 3 KJ.
func Fig7() (*Fig7Result, error) {
	c := cluster.MustNew(cluster.Group{Spec: cluster.SpecT420, Count: 1})
	cfg := defaultDriverConfig()
	cfg.Noise = noise.Default()
	cfg.KeepTaskRecords = true
	cfg.ForcedLocalFraction = 1
	// ~200 map tasks, matching the paper's task-ID axis.
	jobs := []workload.JobSpec{workload.NewJobSpec(0, workload.Wordcount, 200*workload.BlockMB, 2, 0)}
	stats, err := Campaign{Cluster: c, Sched: SchedFIFO, Jobs: jobs, Config: cfg}.Run()
	if err != nil {
		return nil, fmt.Errorf("fig7: %w", err)
	}
	res := &Fig7Result{}
	var vals []float64
	for i, t := range stats.Tasks {
		if t.Kind != mapreduce.MapTask {
			continue
		}
		res.Points = append(res.Points, Fig7Point{TaskID: i, EstJoules: t.EstJoules})
		vals = append(vals, t.EstJoules)
		if t.EstJoules > res.Max {
			res.Max = t.EstJoules
		}
	}
	res.Median = median(vals)
	return res, nil
}

// SpikeRatio returns max/median — how far stragglers push estimates away
// from the bulk (≈ 3 in the paper's plot).
func (r *Fig7Result) SpikeRatio() float64 {
	if r.Median == 0 {
		return 0
	}
	return r.Max / r.Median
}

// Table renders summary statistics plus the first points of the scatter.
func (r *Fig7Result) Table() *tabwrite.Table {
	t := tabwrite.New(
		fmt.Sprintf("Fig 7 — per-task energy under system noise (median %.0f J, max %.0f J, spike ratio %.1f×; paper ≈ 3×)",
			r.Median, r.Max, r.SpikeRatio()),
		"task", "estimated J")
	for _, p := range r.Points {
		t.AddRow(p.TaskID, tabwrite.Cell(p.EstJoules, 0))
	}
	return t
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}
