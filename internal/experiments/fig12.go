package experiments

import (
	"fmt"
	"time"

	"eant/internal/cluster"
	"eant/internal/core"
	"eant/internal/mapreduce"
	"eant/internal/metrics"
	"eant/internal/noise"
	"eant/internal/tabwrite"
	"eant/internal/workload"
)

// Fig12aRow is one β setting with its energy saving and job fairness.
type Fig12aRow struct {
	Beta     float64
	SavingKJ float64
	Fairness float64
}

// Fig12aResult holds the weighting-parameter sensitivity study.
type Fig12aResult struct{ Rows []Fig12aRow }

// sensitivityWorkload builds the workload used by both sensitivity
// sweeps: a moderate MSD slice.
func sensitivityWorkload(seed int64) ([]workload.JobSpec, error) {
	return workload.GenerateMSD(workload.MSDConfig{
		Jobs: 40, Scale: ScaleDown, MeanInterarrival: 30 * time.Second,
	}, newRNG(seed))
}

// sensitivityConfig is the driver setup for the sensitivity sweeps: system
// noise off, so the small per-setting differences are not drowned by
// straggler-induced makespan variance (the paper averages long physical
// runs instead).
func sensitivityConfig(seed int64) mapreduce.Config {
	cfg := defaultDriverConfig()
	cfg.Seed = seed
	cfg.Noise = noise.Off()
	return cfg
}

// Fig12a reproduces the β sensitivity study: energy saving over default
// Hadoop and job fairness (inverse slowdown variance) for β from 0 to
// 0.4. The paper's saving peaks at β ≈ 0.1 (β = 0 also abandons data
// locality); fairness rises monotonically with β.
func Fig12a() (*Fig12aResult, error) {
	const seeds = 8
	betas := []float64{0, 0.1, 0.2, 0.3, 0.4}
	testbed := cluster.Testbed()
	// The workload, each job's standalone run (its baseline completion
	// time, for slowdown normalization [18]) and the FIFO reference run
	// depend only on the seed, never on β, so each seed's runs come
	// first, once, ahead of the β cells.
	seedJobs := make([][]workload.JobSpec, seeds)
	var campaigns []Campaign
	for s := range seedJobs {
		seed := int64(s) + 1
		jobs, err := sensitivityWorkload(seed)
		if err != nil {
			return nil, fmt.Errorf("fig12a: %w", err)
		}
		seedJobs[s] = jobs
		for _, solo := range jobs {
			solo.Submit = 0
			campaigns = append(campaigns, Campaign{
				Cluster: testbed, Sched: SchedFIFO,
				Jobs: []workload.JobSpec{solo}, Config: defaultDriverConfig(),
			})
		}
		campaigns = append(campaigns, Campaign{
			Cluster: testbed, Sched: SchedFIFO, Jobs: jobs, Config: sensitivityConfig(seed),
		})
	}
	for _, beta := range betas {
		params := core.DefaultParams()
		params.Beta = beta
		for s, jobs := range seedJobs {
			campaigns = append(campaigns, Campaign{
				Cluster: testbed, Sched: SchedEAnt, Params: params,
				Jobs: jobs, Config: sensitivityConfig(int64(s) + 1),
			})
		}
	}
	cells, err := RunAll(campaigns, 0)
	if err != nil {
		return nil, fmt.Errorf("fig12a: %w", err)
	}
	standalone := make([]map[int]time.Duration, seeds)
	baseJoules := make([]float64, seeds)
	for s, jobs := range seedJobs {
		standalone[s] = make(map[int]time.Duration, len(jobs))
		for _, j := range jobs {
			solo := cells[0]
			cells = cells[1:]
			if len(solo.Jobs) != 1 {
				return nil, fmt.Errorf("fig12a: standalone job %d did not finish", j.ID)
			}
			standalone[s][j.ID] = solo.Jobs[0].CompletionTime()
		}
		baseJoules[s] = cells[0].TotalJoules
		cells = cells[1:]
	}
	res := &Fig12aResult{}
	for bi, beta := range betas {
		var savingSum, fairSum float64
		for s := 0; s < seeds; s++ {
			stats := cells[bi*seeds+s]
			slowdowns, err := metrics.Slowdowns(stats.Jobs, func(r mapreduce.JobResult) time.Duration {
				return standalone[s][r.Spec.ID]
			})
			if err != nil {
				return nil, fmt.Errorf("fig12a: %w", err)
			}
			savingSum += (baseJoules[s] - stats.TotalJoules) / 1000
			fairSum += metrics.Fairness(slowdowns)
		}
		res.Rows = append(res.Rows, Fig12aRow{
			Beta:     beta,
			SavingKJ: savingSum / seeds,
			Fairness: fairSum / seeds,
		})
	}
	return res, nil
}

// Table renders the Fig. 12a sweep.
func (r *Fig12aResult) Table() *tabwrite.Table {
	t := tabwrite.New("Fig 12a — β sensitivity: energy saving vs job fairness",
		"beta", "energy saving KJ", "fairness (1/var slowdown)")
	for _, row := range r.Rows {
		t.AddRow(row.Beta, tabwrite.Cell(row.SavingKJ, 1), tabwrite.Cell(row.Fairness, 2))
	}
	return t
}

// Fig12bRow is one control-interval setting and its energy saving.
type Fig12bRow struct {
	Interval time.Duration
	SavingKJ float64
}

// Fig12bResult holds the control-interval sensitivity study.
type Fig12bResult struct{ Rows []Fig12bRow }

// Fig12b reproduces the control-interval sensitivity study. The paper
// sweeps 2–8 minutes and peaks at 5; with task durations scaled down
// ~10×, the sweep covers 10–90 s and the same too-few-samples /
// too-stale-policy tradeoff shapes the curve.
func Fig12b() (*Fig12bResult, error) {
	const seeds = 8
	intervals := []time.Duration{
		10 * time.Second, 20 * time.Second, 30 * time.Second,
		45 * time.Second, 60 * time.Second, 90 * time.Second,
	}
	// Each (interval, seed) cell is a FIFO baseline and an E-Ant run.
	testbed := cluster.Testbed()
	var campaigns []Campaign
	for _, interval := range intervals {
		for seed := int64(1); seed <= seeds; seed++ {
			jobs, err := sensitivityWorkload(seed)
			if err != nil {
				return nil, fmt.Errorf("fig12b: %w", err)
			}
			cfg := sensitivityConfig(seed)
			cfg.ControlInterval = interval
			campaigns = append(campaigns,
				Campaign{Cluster: testbed, Sched: SchedFIFO, Jobs: jobs, Config: cfg},
				Campaign{Cluster: testbed, Sched: SchedEAnt, Params: core.DefaultParams(), Jobs: jobs, Config: cfg})
		}
	}
	cells, err := RunAll(campaigns, 0)
	if err != nil {
		return nil, fmt.Errorf("fig12b: %w", err)
	}
	res := &Fig12bResult{}
	for _, interval := range intervals {
		var savingSum float64
		for s := 0; s < seeds; s++ {
			base, stats := cells[0], cells[1]
			cells = cells[2:]
			savingSum += (base.TotalJoules - stats.TotalJoules) / 1000
		}
		res.Rows = append(res.Rows, Fig12bRow{Interval: interval, SavingKJ: savingSum / seeds})
	}
	return res, nil
}

// PeakInterval returns the interval with the highest saving.
func (r *Fig12bResult) PeakInterval() time.Duration {
	best := time.Duration(0)
	bestSaving := 0.0
	for i, row := range r.Rows {
		if i == 0 || row.SavingKJ > bestSaving {
			best = row.Interval
			bestSaving = row.SavingKJ
		}
	}
	return best
}

// Table renders the Fig. 12b sweep.
func (r *Fig12bResult) Table() *tabwrite.Table {
	t := tabwrite.New(
		fmt.Sprintf("Fig 12b — control-interval sensitivity (peak at %v; paper peaks at 5 min unscaled)", r.PeakInterval()),
		"interval", "energy saving KJ")
	for _, row := range r.Rows {
		t.AddRow(row.Interval.String(), tabwrite.Cell(row.SavingKJ, 1))
	}
	return t
}
