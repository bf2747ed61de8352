package experiments

import (
	"fmt"
	"math"
	"time"

	"eant/internal/cluster"
	"eant/internal/metrics"
	"eant/internal/noise"
	"eant/internal/tabwrite"
	"eant/internal/workload"
)

// EfficiencyPoint is one (machine or app, arrival rate) sample of the
// motivation study: throughput per watt plus its power decomposition.
type EfficiencyPoint struct {
	Series      string  // machine type (1a) or application (1c)
	RatePerMin  float64 // task arrival rate
	TasksDone   int
	Elapsed     time.Duration
	Joules      float64
	IdleJoules  float64
	TputPerWatt float64
}

// Fig1aResult holds the heterogeneous-hardware efficiency curves.
type Fig1aResult struct {
	Points []EfficiencyPoint
	// Crossover is the lowest sampled rate at which the Xeon's
	// efficiency meets or exceeds the desktop's (the paper reports
	// ≈ 12 task/min).
	Crossover float64
}

// openLoopCell is one run of the motivation study: one machine of a type
// fed single-block map tasks of an application at a fixed rate.
type openLoopCell struct {
	spec *cluster.TypeSpec
	app  workload.App
	rate float64 // tasks per minute
}

// runOpenLoop runs the cells over the given arrival span, one
// one-machine fleet per machine type, and measures each cell's energy
// efficiency.
func runOpenLoop(cells []openLoopCell, span time.Duration) ([]EfficiencyPoint, error) {
	fleets := make(map[*cluster.TypeSpec]*cluster.Cluster)
	campaigns := make([]Campaign, len(cells))
	for i, cell := range cells {
		if fleets[cell.spec] == nil {
			// §II measures machine capability, not a slot-capped
			// TaskTracker: concurrency scales with cores.
			fleets[cell.spec] = cluster.MustNew(cluster.Group{Spec: cluster.Capability(cell.spec), Count: 1})
		}
		cfg := defaultDriverConfig()
		cfg.Noise = noise.Off()
		// The §II study measures machine capability; input locality is
		// not the variable, so every read is local.
		cfg.ForcedLocalFraction = 1
		campaigns[i] = Campaign{
			Cluster: fleets[cell.spec], Sched: SchedFIFO, Jobs: openLoopTasks(cell.app, cell.rate, span), Config: cfg,
			// Cut off shortly after the arrival span: under overload the
			// backlog is unbounded and the steady-state rates are what
			// the paper measures.
			Horizon: span + 30*time.Second,
		}
	}
	runs, err := RunAll(campaigns, 0)
	if err != nil {
		return nil, err
	}
	points := make([]EfficiencyPoint, len(cells))
	for i, stats := range runs {
		points[i] = EfficiencyPoint{
			Series:      cells[i].spec.Name,
			RatePerMin:  cells[i].rate,
			TasksDone:   stats.TasksDone(),
			Elapsed:     stats.Horizon,
			Joules:      stats.TotalJoules,
			IdleJoules:  cells[i].spec.IdleWatts * stats.Horizon.Seconds(),
			TputPerWatt: metrics.ThroughputPerWatt(stats.TasksDone(), stats.Horizon, stats.TotalJoules),
		}
	}
	return points, nil
}

// Fig1a reproduces the heterogeneous-platform study: Wordcount tasks at
// 5–25 task/min on the Core i7 desktop vs the Xeon E5 server.
func Fig1a() (*Fig1aResult, error) {
	rates := []float64{5, 8, 10, 12, 13, 14, 15, 20, 25}
	var cells []openLoopCell
	for _, spec := range []*cluster.TypeSpec{cluster.SpecDesktop, cluster.SpecXeonE5} {
		for _, rate := range rates {
			cells = append(cells, openLoopCell{spec, workload.Wordcount, rate})
		}
	}
	points, err := runOpenLoop(cells, 30*time.Minute)
	if err != nil {
		return nil, fmt.Errorf("fig1a: %w", err)
	}
	res := &Fig1aResult{Points: points}
	desktop, xeon := points[:len(rates)], points[len(rates):]
	for i, rate := range rates {
		if xeon[i].TputPerWatt >= desktop[i].TputPerWatt {
			res.Crossover = rate
			break
		}
	}
	return res, nil
}

// Table renders the Fig. 1a series.
func (r *Fig1aResult) Table() *tabwrite.Table {
	t := tabwrite.New(
		fmt.Sprintf("Fig 1a — throughput/watt vs arrival rate (crossover ≈ %.0f task/min; paper: 12)", r.Crossover),
		"machine", "rate/min", "tasks", "tput/watt (task/s/W)")
	for _, p := range r.Points {
		t.AddRow(p.Series, p.RatePerMin, p.TasksDone, fmt.Sprintf("%.5f", p.TputPerWatt))
	}
	return t
}

// Fig1bRow decomposes one machine's power under light or heavy load into
// idle and workload-used parts (the paper's stacked bars).
type Fig1bRow struct {
	Machine       string
	Load          string // "light" (10/min) or "heavy" (20/min)
	IdleWatts     float64
	WorkloadWatts float64
}

// Fig1bResult holds the power-decomposition bars.
type Fig1bResult struct{ Rows []Fig1bRow }

// Fig1b reproduces the power-consumption breakdown at 10 and 20 task/min.
func Fig1b() (*Fig1bResult, error) {
	loads := []struct {
		name string
		rate float64
	}{{"light", 10}, {"heavy", 20}}
	var cells []openLoopCell
	for _, load := range loads {
		for _, spec := range []*cluster.TypeSpec{cluster.SpecDesktop, cluster.SpecXeonE5} {
			cells = append(cells, openLoopCell{spec, workload.Wordcount, load.rate})
		}
	}
	points, err := runOpenLoop(cells, 30*time.Minute)
	if err != nil {
		return nil, fmt.Errorf("fig1b: %w", err)
	}
	res := &Fig1bResult{}
	for i, p := range points {
		secs := p.Elapsed.Seconds()
		res.Rows = append(res.Rows, Fig1bRow{
			Machine:       p.Series,
			Load:          loads[i/2].name,
			IdleWatts:     p.IdleJoules / secs,
			WorkloadWatts: (p.Joules - p.IdleJoules) / secs,
		})
	}
	return res, nil
}

// Table renders the Fig. 1b bars.
func (r *Fig1bResult) Table() *tabwrite.Table {
	t := tabwrite.New("Fig 1b — power decomposition (idle vs workload)",
		"machine", "load", "idle W", "workload W")
	for _, row := range r.Rows {
		t.AddRow(row.Machine, row.Load, tabwrite.Cell(row.IdleWatts, 1), tabwrite.Cell(row.WorkloadWatts, 1))
	}
	return t
}

// Fig1cResult holds the heterogeneous-workload efficiency curves on the
// Xeon server, and each application's peak-efficiency arrival rate.
type Fig1cResult struct {
	Points   []EfficiencyPoint
	PeakRate map[workload.App]float64
}

// Fig1c reproduces the heterogeneous-workload study: Wordcount, Terasort
// and Grep at 10–50 task/min on Xeon E5 hardware. The paper's peaks land
// at 20, 35 and 25 task/min respectively.
func Fig1c() (*Fig1cResult, error) {
	rates := []float64{10, 15, 20, 25, 30, 35, 40, 45, 50}
	var cells []openLoopCell
	for _, app := range workload.Apps() {
		for _, rate := range rates {
			cells = append(cells, openLoopCell{cluster.SpecXeonE5, app, rate})
		}
	}
	points, err := runOpenLoop(cells, 20*time.Minute)
	if err != nil {
		return nil, fmt.Errorf("fig1c: %w", err)
	}
	res := &Fig1cResult{PeakRate: make(map[workload.App]float64)}
	for ai, app := range workload.Apps() {
		series := points[ai*len(rates) : (ai+1)*len(rates)]
		best := 0.0
		for i := range series {
			series[i].Series = app.String()
			best = math.Max(best, series[i].TputPerWatt)
		}
		// The "peak" rate is the knee: the lowest rate reaching 98% of
		// the series maximum (the curves flatten at machine saturation).
		for _, p := range series {
			if p.TputPerWatt >= 0.98*best {
				res.PeakRate[app] = p.RatePerMin
				break
			}
		}
		res.Points = append(res.Points, series...)
	}
	return res, nil
}

// Table renders the Fig. 1c series.
func (r *Fig1cResult) Table() *tabwrite.Table {
	t := tabwrite.New(
		fmt.Sprintf("Fig 1c — per-app efficiency on Xeon (peaks: WC %.0f, Grep %.0f, TS %.0f task/min; paper: 20/25/35)",
			r.PeakRate[workload.Wordcount], r.PeakRate[workload.Grep], r.PeakRate[workload.Terasort]),
		"app", "rate/min", "tasks", "tput/watt (task/s/W)")
	for _, p := range r.Points {
		t.AddRow(p.Series, p.RatePerMin, p.TasksDone, fmt.Sprintf("%.5f", p.TputPerWatt))
	}
	return t
}

// Fig1dRow is one application's normalized job-completion-time breakdown.
type Fig1dRow struct {
	App     workload.App
	Map     float64
	Shuffle float64
	Reduce  float64
}

// Fig1dResult holds the phase breakdowns.
type Fig1dResult struct{ Rows []Fig1dRow }

// Fig1d reproduces the resource-preference breakdown: each application's
// job completion time split into map, shuffle and reduce phases,
// normalized to sum to 1. Wordcount is map-dominated; Grep and Terasort
// are shuffle/reduce-heavy.
func Fig1d() (*Fig1dResult, error) {
	testbed := cluster.Testbed()
	var campaigns []Campaign
	for _, app := range workload.Apps() {
		cfg := defaultDriverConfig()
		cfg.Noise = noise.Off()
		// 300 GB in the paper; ScaleDown shrinks it to ~4.7 GB.
		inputMB := 300.0 * 1024 / ScaleDown
		jobs := []workload.JobSpec{workload.NewJobSpec(0, app, inputMB, 8, 0)}
		campaigns = append(campaigns, Campaign{Cluster: testbed, Sched: SchedFIFO, Jobs: jobs, Config: cfg})
	}
	cells, err := RunAll(campaigns, 0)
	if err != nil {
		return nil, fmt.Errorf("fig1d: %w", err)
	}
	res := &Fig1dResult{}
	for i, app := range workload.Apps() {
		r := cells[i].Jobs[0]
		total := r.MapSeconds() + r.ShuffleSeconds() + r.ReduceSeconds()
		if total <= 0 {
			return nil, fmt.Errorf("fig1d: %v job has zero phase time", app)
		}
		res.Rows = append(res.Rows, Fig1dRow{
			App:     app,
			Map:     r.MapSeconds() / total,
			Shuffle: r.ShuffleSeconds() / total,
			Reduce:  r.ReduceSeconds() / total,
		})
	}
	return res, nil
}

// MapDominated reports whether app's breakdown is map-heavy (>50%).
func (r *Fig1dResult) MapDominated(app workload.App) bool {
	for _, row := range r.Rows {
		if row.App == app {
			return row.Map > 0.5
		}
	}
	return false
}

// Table renders the Fig. 1d breakdown.
func (r *Fig1dResult) Table() *tabwrite.Table {
	t := tabwrite.New("Fig 1d — normalized JCT breakdown by phase",
		"app", "map", "shuffle", "reduce")
	for _, row := range r.Rows {
		t.AddRow(row.App.String(), tabwrite.Cell(row.Map, 3), tabwrite.Cell(row.Shuffle, 3), tabwrite.Cell(row.Reduce, 3))
	}
	return t
}
