package experiments

import (
	"fmt"
	"time"

	"eant/internal/cluster"
	"eant/internal/noise"
	"eant/internal/tabwrite"
	"eant/internal/workload"
)

// Fig6Row is one data-locality level and the resulting completion time.
type Fig6Row struct {
	LocalPercent int
	JCT          time.Duration
}

// Fig6Result holds the locality study. The paper shows JCT falling from
// ~45 min at 10 % locality to ~25 min at 80 %.
type Fig6Result struct{ Rows []Fig6Row }

// Fig6 reproduces the data-locality impact study: the same Wordcount job
// run with 10 %, 40 % and 80 % of its map tasks reading local data.
func Fig6() (*Fig6Result, error) {
	// The paper measures "job completion times of multiple Wordcount
	// jobs with the same size input data but different data locality";
	// averaging several jobs keeps one job's heartbeat-quantized tail
	// wave from masking the phase difference. The map phase is where
	// locality acts, so the jobs are map-only.
	const jobCount = 6
	inputMB := 300.0 * 1024 / ScaleDown
	jobs := workload.Batch(workload.Wordcount, jobCount, inputMB, 0, 0)
	percents := []int{10, 40, 80}
	testbed := cluster.Testbed()
	var campaigns []Campaign
	for _, pct := range percents {
		cfg := defaultDriverConfig()
		cfg.Noise = noise.Off()
		cfg.ForcedLocalFraction = float64(pct) / 100
		campaigns = append(campaigns, Campaign{Cluster: testbed, Sched: SchedFIFO, Jobs: jobs, Config: cfg})
	}
	cells, err := RunAll(campaigns, 0)
	if err != nil {
		return nil, fmt.Errorf("fig6: %w", err)
	}
	res := &Fig6Result{}
	for i, pct := range percents {
		stats := cells[i]
		if len(stats.Jobs) != jobCount {
			return nil, fmt.Errorf("fig6: %d/%d jobs finished at %d%% locality", len(stats.Jobs), jobCount, pct)
		}
		var sum time.Duration
		for _, jr := range stats.Jobs {
			sum += jr.Finished - jr.FirstStart
		}
		res.Rows = append(res.Rows, Fig6Row{LocalPercent: pct, JCT: sum / jobCount})
	}
	return res, nil
}

// Monotone reports whether completion time strictly improves with
// locality — the figure's claim.
func (r *Fig6Result) Monotone() bool {
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].JCT >= r.Rows[i-1].JCT {
			return false
		}
	}
	return len(r.Rows) > 1
}

// Table renders the Fig. 6 rows.
func (r *Fig6Result) Table() *tabwrite.Table {
	t := tabwrite.New("Fig 6 — impact of data locality on job completion time",
		"% local data", "JCT")
	for _, row := range r.Rows {
		t.AddRow(row.LocalPercent, row.JCT.Round(time.Second).String())
	}
	return t
}
