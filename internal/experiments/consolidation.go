package experiments

import (
	"fmt"
	"time"

	"eant/internal/cluster"
	"eant/internal/core"
	"eant/internal/mapreduce"
	"eant/internal/tabwrite"
	"eant/internal/workload"
)

// ConsolidationRow is one (scheduler, consolidation) cell of the
// future-work study.
type ConsolidationRow struct {
	Sched        SchedulerName
	Consolidated bool
	TotalJoules  float64
	Makespan     time.Duration
	Sleeps       int
	Wakes        int
}

// ConsolidationResult holds the §VIII future-work experiment: E-Ant
// combined with server consolidation.
type ConsolidationResult struct {
	Rows []ConsolidationRow
}

// Consolidation runs the paper's stated future work — "the integration of
// E-Ant with cluster resource provisioning and server consolidation
// techniques" — by pairing each scheduler with a covering-subset
// power-down policy (Leverich & Kozyrakis, the paper's [13]) on a
// light-load MSD campaign, where idle machines actually get the chance to
// sleep. E-Ant's steering concentrates work on the machines it favors,
// letting the rest sleep longer than under Fair's spreading assignment.
func Consolidation() (*ConsolidationResult, error) {
	const jobCount = 50
	const seeds = 3
	modes := []bool{false, true}
	scheds := []SchedulerName{SchedFair, SchedEAnt}
	testbed := cluster.Testbed()
	var campaigns []Campaign
	for _, consolidated := range modes {
		for _, name := range scheds {
			for seed := int64(1); seed <= seeds; seed++ {
				jobs, err := workload.GenerateMSD(workload.MSDConfig{
					Jobs: jobCount, Scale: ScaleDown,
					// Light load: lulls between arrivals are where
					// machines can sleep.
					MeanInterarrival: 90 * time.Second,
				}, newRNG(seed))
				if err != nil {
					return nil, fmt.Errorf("consolidation: %w", err)
				}
				cfg := defaultDriverConfig()
				cfg.Seed = seed
				if consolidated {
					cfg.Power = mapreduce.PowerMgmt{Enabled: true}
				}
				campaigns = append(campaigns, Campaign{
					Cluster: testbed, Sched: name,
					Params: core.DefaultParams(), Jobs: jobs, Config: cfg,
				})
			}
		}
	}
	cells, err := RunAll(campaigns, 0)
	if err != nil {
		return nil, fmt.Errorf("consolidation: %w", err)
	}
	res := &ConsolidationResult{}
	i := 0
	for _, consolidated := range modes {
		for _, name := range scheds {
			agg := ConsolidationRow{Sched: name, Consolidated: consolidated}
			for s := 0; s < seeds; s++ {
				stats := cells[i]
				i++
				agg.TotalJoules += stats.TotalJoules / seeds
				agg.Makespan += stats.Horizon / seeds
				agg.Sleeps += stats.Sleeps
				agg.Wakes += stats.Wakes
			}
			res.Rows = append(res.Rows, agg)
		}
	}
	return res, nil
}

// row returns the cell for (sched, consolidated), or nil.
func (r *ConsolidationResult) row(name SchedulerName, consolidated bool) *ConsolidationRow {
	for i := range r.Rows {
		if r.Rows[i].Sched == name && r.Rows[i].Consolidated == consolidated {
			return &r.Rows[i]
		}
	}
	return nil
}

// ConsolidationGain returns how much energy consolidation saves for the
// given scheduler, in percent.
func (r *ConsolidationResult) ConsolidationGain(name SchedulerName) float64 {
	on := r.row(name, true)
	off := r.row(name, false)
	if on == nil || off == nil || off.TotalJoules <= 0 {
		return 0
	}
	return 100 * (off.TotalJoules - on.TotalJoules) / off.TotalJoules
}

// EAntAdvantage returns E-Ant's saving over Fair with consolidation
// active, in percent.
func (r *ConsolidationResult) EAntAdvantage() float64 {
	eant := r.row(SchedEAnt, true)
	fair := r.row(SchedFair, true)
	if eant == nil || fair == nil || fair.TotalJoules <= 0 {
		return 0
	}
	return 100 * (fair.TotalJoules - eant.TotalJoules) / fair.TotalJoules
}

// Table renders the consolidation grid.
func (r *ConsolidationResult) Table() *tabwrite.Table {
	t := tabwrite.New(
		fmt.Sprintf("Consolidation (§VIII future work) — gains: Fair %.1f%%, E-Ant %.1f%%; E-Ant vs Fair with consolidation: %.1f%%",
			r.ConsolidationGain(SchedFair), r.ConsolidationGain(SchedEAnt), r.EAntAdvantage()),
		"scheduler", "consolidation", "total KJ", "makespan", "sleeps", "wakes")
	for _, row := range r.Rows {
		mode := "off"
		if row.Consolidated {
			mode = "on"
		}
		t.AddRow(string(row.Sched), mode, tabwrite.Cell(row.TotalJoules/1000, 0),
			row.Makespan.Round(time.Second).String(), row.Sleeps, row.Wakes)
	}
	return t
}
