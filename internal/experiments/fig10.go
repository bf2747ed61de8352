package experiments

import (
	"fmt"
	"time"

	"eant/internal/cluster"
	"eant/internal/core"
	"eant/internal/probe"
	"eant/internal/tabwrite"
	"eant/internal/workload"
)

// ExchangeVariant names one §IV-D information-exchange configuration.
type ExchangeVariant string

// The four variants of Fig. 10.
const (
	ExchangeNone    ExchangeVariant = "Non-exchange"
	ExchangeMachine ExchangeVariant = "+Machine-level"
	ExchangeJob     ExchangeVariant = "+Job-level"
	ExchangeBoth    ExchangeVariant = "+Both"
)

func (v ExchangeVariant) params() core.Params {
	p := core.DefaultParams()
	p.MachineExchange = v == ExchangeMachine || v == ExchangeBoth
	p.JobExchange = v == ExchangeJob || v == ExchangeBoth
	return p
}

// Fig10Point is the cumulative energy saving of one variant over the
// heterogeneity-agnostic baseline at one control tick.
type Fig10Point struct {
	At       time.Duration
	SavingKJ float64
}

// Fig10Result holds the savings-over-time series per exchange variant.
type Fig10Result struct {
	Series map[ExchangeVariant][]Fig10Point
	// FinalSaving is each variant's saving at the end of the common
	// timeline.
	FinalSaving map[ExchangeVariant]float64
}

// Fig10 reproduces the exchange-strategy study: E-Ant with each exchange
// configuration against default heterogeneity-agnostic Hadoop (FIFO),
// measuring cumulative energy savings at each control tick while the
// noisy MSD workload progresses. The paper reports machine-level exchange
// improving savings by ~7 %, job-level by ~10 %, both by ~15 % over
// no-exchange.
func Fig10() (*Fig10Result, error) {
	const jobs = 40
	const seeds = 2
	variants := []ExchangeVariant{ExchangeNone, ExchangeMachine, ExchangeJob, ExchangeBoth}

	// timelines[variant][tick] accumulates joules across seeds; baseline
	// likewise. Different seeds share tick spacing (same control
	// interval), truncated to the shortest run.
	type series = []float64
	baseline := series{}
	varSeries := make(map[ExchangeVariant]series)
	// tickSpan is the first tick of the first run, seed 1's baseline.
	var tickSpan time.Duration

	accumulate := func(dst series, src []float64) series {
		if len(dst) == 0 {
			return append(series{}, src...)
		}
		n := len(dst)
		if len(src) < n {
			n = len(src)
		}
		out := make(series, n)
		for i := 0; i < n; i++ {
			out[i] = dst[i] + src[i]
		}
		return out
	}

	testbed := cluster.Testbed()
	var campaigns []Campaign
	var runs []*[]float64
	for seed := int64(1); seed <= seeds; seed++ {
		msd, err := workload.GenerateMSD(workload.MSDConfig{
			Jobs: jobs, Scale: ScaleDown, MeanInterarrival: 30 * time.Second,
		}, newRNG(seed))
		if err != nil {
			return nil, fmt.Errorf("fig10: %w", err)
		}
		add := func(sched SchedulerName, p core.Params) {
			cfg := defaultDriverConfig()
			cfg.Seed = seed
			// The exchange strategies exist to defeat estimator noise;
			// stress them with heavier fluctuation than the default
			// evaluation noise (cf. the Fig. 7 scatter).
			cfg.Noise.MeasurementCV = 0.35
			cfg.Noise.DurationCV = 0.25
			// Each control tick reports the fleet energy it synced.
			joules, first := new([]float64), len(runs) == 0
			cfg.Probe = foldProbe(false, func(ev probe.Event) {
				if ev.Kind == probe.KindControlTick {
					*joules = append(*joules, ev.A)
					if first && tickSpan == 0 {
						tickSpan = ev.At
					}
				}
			})
			campaigns = append(campaigns, Campaign{Cluster: testbed, Sched: sched, Params: p, Jobs: msd, Config: cfg})
			runs = append(runs, joules)
		}
		add(SchedFIFO, core.Params{})
		for _, v := range variants {
			add(SchedEAnt, v.params())
		}
	}
	if _, err := RunAll(campaigns, 0); err != nil {
		return nil, fmt.Errorf("fig10: %w", err)
	}
	for len(runs) > 0 {
		baseline = accumulate(baseline, *runs[0])
		for i, v := range variants {
			varSeries[v] = accumulate(varSeries[v], *runs[1+i])
		}
		runs = runs[1+len(variants):]
	}

	res := &Fig10Result{
		Series:      make(map[ExchangeVariant][]Fig10Point),
		FinalSaving: make(map[ExchangeVariant]float64),
	}
	for _, v := range variants {
		vs := varSeries[v]
		n := len(vs)
		if len(baseline) < n {
			n = len(baseline)
		}
		for i := 0; i < n; i++ {
			res.Series[v] = append(res.Series[v], Fig10Point{
				At:       time.Duration(i+1) * tickSpan,
				SavingKJ: (baseline[i] - vs[i]) / 1000 / seeds,
			})
		}
		if n > 0 {
			res.FinalSaving[v] = res.Series[v][n-1].SavingKJ
		}
	}
	return res, nil
}

// Table renders the Fig. 10 series.
func (r *Fig10Result) Table() *tabwrite.Table {
	order := []ExchangeVariant{ExchangeNone, ExchangeMachine, ExchangeJob, ExchangeBoth}
	t := tabwrite.New(
		fmt.Sprintf("Fig 10 — energy saving over default Hadoop by exchange strategy (final KJ: none %.0f, machine %.0f, job %.0f, both %.0f)",
			r.FinalSaving[ExchangeNone], r.FinalSaving[ExchangeMachine],
			r.FinalSaving[ExchangeJob], r.FinalSaving[ExchangeBoth]),
		"time", "none KJ", "+machine KJ", "+job KJ", "+both KJ")
	n := len(r.Series[ExchangeNone])
	for _, v := range order {
		if len(r.Series[v]) < n {
			n = len(r.Series[v])
		}
	}
	for i := 0; i < n; i++ {
		row := []any{r.Series[ExchangeNone][i].At.Round(time.Second).String()}
		for _, v := range order {
			row = append(row, tabwrite.Cell(r.Series[v][i].SavingKJ, 1))
		}
		t.AddRow(row...)
	}
	return t
}
