package experiments

import (
	"fmt"
	"sort"
	"time"

	"eant/internal/cluster"
	"eant/internal/core"
	"eant/internal/mapreduce"
	"eant/internal/metrics"
	"eant/internal/tabwrite"
	"eant/internal/workload"
)

// Fig8Config parameterizes the MSD evaluation campaign.
type Fig8Config struct {
	// Jobs is the MSD job count (paper: 87).
	Jobs int
	// Seeds is how many independent campaigns to average; per-seed
	// makespans are straggler-noisy.
	Seeds int
	// MeanInterarrival spaces job submissions (Poisson).
	MeanInterarrival time.Duration
	// Schedulers to compare; defaults to FIFO, Fair, Tarazu, E-Ant.
	Schedulers []SchedulerName
}

// DefaultFig8Config returns the evaluation setup: the full 87-job MSD
// workload averaged over 3 seeds at a sustained-load submission rate.
func DefaultFig8Config() Fig8Config {
	return Fig8Config{
		Jobs:             87,
		Seeds:            3,
		MeanInterarrival: 30 * time.Second,
	}
}

// SchedResult aggregates one scheduler's campaigns.
type SchedResult struct {
	Sched       SchedulerName
	TotalJoules float64            // mean across seeds
	Makespan    time.Duration      // mean across seeds
	TypeJoules  map[string]float64 // mean across seeds
	TypeUtil    map[string]float64 // mean across seeds
	// ClassJCT is the mean completion time per "App-Class" label.
	ClassJCT map[string]time.Duration
	// Stats of the last seed's run, for task-distribution views (Fig. 9).
	Last *mapreduce.Stats
}

// Fig8Result holds the cross-scheduler comparison.
type Fig8Result struct {
	Config  Fig8Config
	Results []SchedResult
}

// Fig8 runs the §VI-A comparison: the MSD workload on the 16-node testbed
// under each scheduler, reporting per-machine-type energy (8a), CPU
// utilization (8b) and per-class completion times (8c).
func Fig8(cfg Fig8Config) (*Fig8Result, error) {
	if cfg.Jobs <= 0 || cfg.Seeds <= 0 {
		return nil, fmt.Errorf("fig8: jobs %d and seeds %d must be positive", cfg.Jobs, cfg.Seeds)
	}
	scheds := cfg.Schedulers
	if len(scheds) == 0 {
		scheds = []SchedulerName{SchedFIFO, SchedFair, SchedTarazu, SchedEAnt}
	}
	testbed := cluster.Testbed()
	var campaigns []Campaign
	for _, name := range scheds {
		for seed := int64(1); seed <= int64(cfg.Seeds); seed++ {
			jobs, err := workload.GenerateMSD(workload.MSDConfig{
				Jobs:             cfg.Jobs,
				Scale:            ScaleDown,
				MeanInterarrival: cfg.MeanInterarrival,
			}, newRNG(seed))
			if err != nil {
				return nil, fmt.Errorf("fig8: %w", err)
			}
			dcfg := defaultDriverConfig()
			dcfg.Seed = seed
			campaigns = append(campaigns, Campaign{
				Cluster: testbed, Sched: name,
				Params: core.DefaultParams(), Jobs: jobs, Config: dcfg,
			})
		}
	}
	cells, err := RunAll(campaigns, 0)
	if err != nil {
		return nil, fmt.Errorf("fig8: %w", err)
	}
	res := &Fig8Result{Config: cfg}
	for si, name := range scheds {
		agg := SchedResult{
			Sched:      name,
			TypeJoules: make(map[string]float64),
			TypeUtil:   make(map[string]float64),
			ClassJCT:   make(map[string]time.Duration),
		}
		classSums := make(map[string]time.Duration)
		classCounts := make(map[string]int)
		for s := 0; s < cfg.Seeds; s++ {
			stats := cells[si*cfg.Seeds+s]
			agg.TotalJoules += stats.TotalJoules
			agg.Makespan += stats.Horizon
			for k, v := range stats.TypeJoules {
				agg.TypeJoules[k] += v
			}
			for k, v := range stats.TypeAvgUtil {
				agg.TypeUtil[k] += v
			}
			for _, jr := range stats.Jobs {
				label := jr.Spec.ClassLabel()
				classSums[label] += jr.CompletionTime()
				classCounts[label]++
			}
			agg.Last = stats
		}
		n := float64(cfg.Seeds)
		agg.TotalJoules /= n
		agg.Makespan /= time.Duration(cfg.Seeds)
		for k := range agg.TypeJoules {
			agg.TypeJoules[k] /= n
		}
		for k := range agg.TypeUtil {
			agg.TypeUtil[k] /= n
		}
		for label, sum := range classSums {
			agg.ClassJCT[label] = sum / time.Duration(classCounts[label])
		}
		res.Results = append(res.Results, agg)
	}
	return res, nil
}

// Result returns the aggregate for one scheduler, or nil.
func (r *Fig8Result) Result(name SchedulerName) *SchedResult {
	for i := range r.Results {
		if r.Results[i].Sched == name {
			return &r.Results[i]
		}
	}
	return nil
}

// SavingVs returns E-Ant's energy saving over the named baseline, in
// percent (the paper's headline: 17 % vs Fair, 12 % vs Tarazu).
func (r *Fig8Result) SavingVs(baseline SchedulerName) float64 {
	eant := r.Result(SchedEAnt)
	base := r.Result(baseline)
	if eant == nil || base == nil {
		return 0
	}
	return metrics.EnergySavingPercent(base.TotalJoules, eant.TotalJoules)
}

// machineTypes returns the type names present, stable order.
func (r *Fig8Result) machineTypes() []string {
	seen := map[string]bool{}
	var names []string
	for _, sr := range r.Results {
		for k := range sr.TypeJoules {
			if !seen[k] {
				seen[k] = true
				names = append(names, k)
			}
		}
	}
	sort.Strings(names)
	return names
}

// TableA renders Fig. 8a: energy per machine type per scheduler.
func (r *Fig8Result) TableA() *tabwrite.Table {
	t := tabwrite.New(
		fmt.Sprintf("Fig 8a — energy by machine type, KJ (E-Ant saves %.1f%% vs Fair, %.1f%% vs Tarazu; paper: 17%% / 12%%)",
			r.SavingVs(SchedFair), r.SavingVs(SchedTarazu)),
		append([]string{"machine"}, schedHeaders(r.Results)...)...)
	for _, name := range r.machineTypes() {
		row := []any{name}
		for _, sr := range r.Results {
			row = append(row, tabwrite.Cell(sr.TypeJoules[name]/1000, 0))
		}
		t.AddRow(row...)
	}
	total := []any{"TOTAL"}
	for _, sr := range r.Results {
		total = append(total, tabwrite.Cell(sr.TotalJoules/1000, 0))
	}
	t.AddRow(total...)
	return t
}

// TableB renders Fig. 8b: mean CPU utilization per machine type.
func (r *Fig8Result) TableB() *tabwrite.Table {
	t := tabwrite.New("Fig 8b — CPU utilization by machine type (%)",
		append([]string{"machine"}, schedHeaders(r.Results)...)...)
	for _, name := range r.machineTypes() {
		row := []any{name}
		for _, sr := range r.Results {
			row = append(row, tabwrite.Cell(100*sr.TypeUtil[name], 1))
		}
		t.AddRow(row...)
	}
	return t
}

// TableC renders Fig. 8c: per-class completion times normalized to Fair.
func (r *Fig8Result) TableC() *tabwrite.Table {
	t := tabwrite.New("Fig 8c — job completion time by class, normalized to Fair",
		append([]string{"class"}, schedHeaders(r.Results)...)...)
	fair := r.Result(SchedFair)
	var labels []string
	for label := range fair.ClassJCT {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	for _, label := range labels {
		base := fair.ClassJCT[label]
		row := []any{label}
		for _, sr := range r.Results {
			if base > 0 {
				row = append(row, tabwrite.Cell(float64(sr.ClassJCT[label])/float64(base), 2))
			} else {
				row = append(row, "-")
			}
		}
		t.AddRow(row...)
	}
	return t
}

func schedHeaders(results []SchedResult) []string {
	out := make([]string, len(results))
	for i, sr := range results {
		out[i] = string(sr.Sched)
	}
	return out
}

// Fig9Result holds E-Ant's task-distribution views: completed tasks per
// machine type split by application (9a) and by task kind (9b).
type Fig9Result struct {
	// ByApp[machineType][app] and ByKind[machineType][kind] count
	// completed tasks from the E-Ant campaign.
	ByApp  map[string]map[workload.App]int
	ByKind map[string]map[mapreduce.TaskKind]int
}

// Fig9 derives the §VI-B adaptiveness views from a Fig. 8 run (it uses
// the E-Ant campaign's completed-task tallies).
func Fig9(r *Fig8Result) (*Fig9Result, error) {
	eant := r.Result(SchedEAnt)
	if eant == nil || eant.Last == nil {
		return nil, fmt.Errorf("fig9: fig8 result has no E-Ant campaign")
	}
	stats := eant.Last
	res := &Fig9Result{
		ByApp:  make(map[string]map[workload.App]int),
		ByKind: make(map[string]map[mapreduce.TaskKind]int),
	}
	for _, name := range r.machineTypes() {
		res.ByApp[name] = make(map[workload.App]int)
		res.ByKind[name] = make(map[mapreduce.TaskKind]int)
		for _, app := range workload.Apps() {
			res.ByApp[name][app] = stats.CompletedByTypeApp(name, app)
		}
		for _, kind := range []mapreduce.TaskKind{mapreduce.MapTask, mapreduce.ReduceTask} {
			res.ByKind[name][kind] = stats.CompletedByTypeKind(name, kind)
		}
	}
	return res, nil
}

// WordcountShare returns the fraction of a machine type's completed tasks
// that were Wordcount — the Fig. 9a adaptiveness measure.
func (r *Fig9Result) WordcountShare(machineType string) float64 {
	byApp := r.ByApp[machineType]
	total := 0
	for _, n := range byApp {
		total += n
	}
	if total == 0 {
		return 0
	}
	return float64(byApp[workload.Wordcount]) / float64(total)
}

// TableA renders Fig. 9a: per-type completed tasks by application.
func (r *Fig9Result) TableA() *tabwrite.Table {
	t := tabwrite.New("Fig 9a — E-Ant task distribution by workload type",
		"machine", "Wordcount", "Grep", "Terasort", "WC share")
	var names []string
	for name := range r.ByApp {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		byApp := r.ByApp[name]
		t.AddRow(name, byApp[workload.Wordcount], byApp[workload.Grep], byApp[workload.Terasort],
			tabwrite.Cell(r.WordcountShare(name), 2))
	}
	return t
}

// TableB renders Fig. 9b: per-type completed tasks by kind.
func (r *Fig9Result) TableB() *tabwrite.Table {
	t := tabwrite.New("Fig 9b — E-Ant task distribution by task type",
		"machine", "map", "reduce")
	var names []string
	for name := range r.ByKind {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t.AddRow(name, r.ByKind[name][mapreduce.MapTask], r.ByKind[name][mapreduce.ReduceTask])
	}
	return t
}
