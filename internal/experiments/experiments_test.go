package experiments

import (
	"strings"
	"testing"
	"time"

	"eant/internal/core"
	"eant/internal/tabwrite"
	"eant/internal/workload"
)

func TestNewScheduler(t *testing.T) {
	for _, name := range []SchedulerName{SchedFIFO, SchedFair, SchedTarazu, SchedEAnt} {
		s, err := NewScheduler(name, core.DefaultParams())
		if err != nil {
			t.Fatalf("NewScheduler(%s): %v", name, err)
		}
		if s.Name() != string(name) {
			t.Errorf("scheduler %s reports name %s", name, s.Name())
		}
	}
	if _, err := NewScheduler("Mystery", core.DefaultParams()); err == nil {
		t.Error("unknown scheduler accepted")
	}
	bad := core.DefaultParams()
	bad.Rho = 9
	if _, err := NewScheduler(SchedEAnt, bad); err == nil {
		t.Error("invalid E-Ant params accepted")
	}
}

func TestOpenLoopTasks(t *testing.T) {
	jobs := openLoopTasks(workload.Grep, 10, time.Minute)
	if len(jobs) != 10 {
		t.Fatalf("10 task/min over 1 min = %d jobs, want 10", len(jobs))
	}
	for i, j := range jobs {
		if j.NumMaps != 1 || j.NumReduces != 0 {
			t.Fatalf("open-loop job %d has %d maps, %d reduces", i, j.NumMaps, j.NumReduces)
		}
	}
	if got := openLoopTasks(workload.Grep, 0, time.Minute); got != nil {
		t.Error("zero rate should yield no jobs")
	}
}

func TestFig1aCrossoverExists(t *testing.T) {
	r, err := Fig1a()
	if err != nil {
		t.Fatal(err)
	}
	if r.Crossover == 0 {
		t.Fatal("no crossover found: Xeon never overtakes desktop")
	}
	// The paper's crossover is ≈ 12 task/min; require low-to-mid teens.
	if r.Crossover < 10 || r.Crossover > 25 {
		t.Errorf("crossover at %.0f task/min, want 10-25 (paper: 12)", r.Crossover)
	}
	// Desktop must win clearly at light load.
	var deskLight, xeonLight float64
	for _, p := range r.Points {
		if p.RatePerMin == 5 {
			if p.Series == "Desktop" {
				deskLight = p.TputPerWatt
			} else {
				xeonLight = p.TputPerWatt
			}
		}
	}
	if deskLight <= xeonLight {
		t.Errorf("at 5 task/min desktop %.5f not above xeon %.5f", deskLight, xeonLight)
	}
}

func TestFig1bXeonIdleDominated(t *testing.T) {
	r, err := Fig1b()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		switch row.Machine {
		case "XeonE5":
			if row.IdleWatts <= row.WorkloadWatts {
				t.Errorf("Xeon %s load: idle %.0f W not dominant over workload %.0f W",
					row.Load, row.IdleWatts, row.WorkloadWatts)
			}
		case "Desktop":
			if row.Load == "heavy" && row.WorkloadWatts <= row.IdleWatts {
				t.Errorf("desktop heavy load: workload %.0f W not above idle %.0f W",
					row.WorkloadWatts, row.IdleWatts)
			}
		}
	}
}

func TestFig1cPeakOrdering(t *testing.T) {
	r, err := Fig1c()
	if err != nil {
		t.Fatal(err)
	}
	wc := r.PeakRate[workload.Wordcount]
	grep := r.PeakRate[workload.Grep]
	ts := r.PeakRate[workload.Terasort]
	// Paper: WC 20 < Grep 25 < TS 35. Require WC lowest and distinct.
	if !(wc < grep && wc < ts) {
		t.Errorf("peak ordering WC=%v Grep=%v TS=%v, want Wordcount lowest", wc, grep, ts)
	}
}

func TestFig1dPhasePreferences(t *testing.T) {
	r, err := Fig1d()
	if err != nil {
		t.Fatal(err)
	}
	if !r.MapDominated(workload.Wordcount) {
		t.Error("Wordcount not map-dominated")
	}
	if r.MapDominated(workload.Grep) || r.MapDominated(workload.Terasort) {
		t.Error("Grep/Terasort should be shuffle/reduce-dominated")
	}
	for _, row := range r.Rows {
		sum := row.Map + row.Shuffle + row.Reduce
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("%v breakdown sums to %v", row.App, sum)
		}
	}
}

func TestFig4ModelAccuracy(t *testing.T) {
	r, err := Fig4()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 6 {
		t.Fatalf("got %d rows, want 2 machines × 3 apps", len(r.Rows))
	}
	// Paper reports ≈ 8-12 % NRMSE; require the same order of magnitude.
	if worst := r.MaxNRMSE(); worst > 0.25 {
		t.Errorf("max NRMSE %.1f%%, want ≤ 25%%", 100*worst)
	}
	for _, row := range r.Rows {
		if row.RecordedKJ <= 0 || row.EstimatedKJ <= 0 {
			t.Errorf("%s/%v has empty energy", row.Machine, row.App)
		}
	}
}

func TestFig6LocalityMonotone(t *testing.T) {
	r, err := Fig6()
	if err != nil {
		t.Fatal(err)
	}
	if !r.Monotone() {
		t.Errorf("JCT not monotone in locality: %+v", r.Rows)
	}
}

func TestFig7NoiseSpikes(t *testing.T) {
	r, err := Fig7()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) < 150 {
		t.Fatalf("only %d task points", len(r.Points))
	}
	// Paper's scatter spikes to ≈ 3× the bulk.
	if r.SpikeRatio() < 1.5 {
		t.Errorf("spike ratio %.2f, want ≥ 1.5", r.SpikeRatio())
	}
}

func TestFig8HeadlineOrdering(t *testing.T) {
	cfg := DefaultFig8Config()
	cfg.Seeds = 2 // keep the test fast; the bench runs the full config
	r, err := Fig8(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if saving := r.SavingVs(SchedFair); saving <= 0 {
		t.Errorf("E-Ant saving vs Fair = %.1f%%, want positive", saving)
	}
	eantRes := r.Result(SchedEAnt)
	fair := r.Result(SchedFair)
	// Fig. 8b: E-Ant shifts utilization toward the T420s and off the
	// desktops.
	if eantRes.TypeUtil["T420"] <= fair.TypeUtil["T420"] {
		t.Errorf("T420 util: E-Ant %.3f not above Fair %.3f",
			eantRes.TypeUtil["T420"], fair.TypeUtil["T420"])
	}
	if eantRes.TypeUtil["Desktop"] >= fair.TypeUtil["Desktop"] {
		t.Errorf("Desktop util: E-Ant %.3f not below Fair %.3f",
			eantRes.TypeUtil["Desktop"], fair.TypeUtil["Desktop"])
	}
}

func TestFig9Affinity(t *testing.T) {
	cfg := DefaultFig8Config()
	cfg.Seeds = 1
	cfg.Schedulers = []SchedulerName{SchedFair, SchedEAnt}
	f8, err := Fig8(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Fig9(f8)
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 9a: compute-dense machines attract Wordcount; the Atom and
	// desktops host proportionally more IO-bound work.
	if r.WordcountShare("T420") <= r.WordcountShare("Desktop") {
		t.Errorf("T420 WC share %.2f not above Desktop %.2f",
			r.WordcountShare("T420"), r.WordcountShare("Desktop"))
	}
	if r.WordcountShare("Atom") >= r.WordcountShare("T420") {
		t.Errorf("Atom WC share %.2f not below T420 %.2f",
			r.WordcountShare("Atom"), r.WordcountShare("T420"))
	}
}

func TestFig10ExchangeHelps(t *testing.T) {
	r, err := Fig10()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []ExchangeVariant{ExchangeNone, ExchangeMachine, ExchangeJob, ExchangeBoth} {
		if len(r.Series[v]) == 0 {
			t.Fatalf("no series for %s", v)
		}
	}
	// The paper's claim: exchange strategies improve savings under noise.
	best := r.FinalSaving[ExchangeMachine]
	if r.FinalSaving[ExchangeJob] > best {
		best = r.FinalSaving[ExchangeJob]
	}
	if r.FinalSaving[ExchangeBoth] > best {
		best = r.FinalSaving[ExchangeBoth]
	}
	if best <= r.FinalSaving[ExchangeNone] {
		t.Errorf("no exchange variant beats no-exchange: none=%.0f machine=%.0f job=%.0f both=%.0f",
			r.FinalSaving[ExchangeNone], r.FinalSaving[ExchangeMachine],
			r.FinalSaving[ExchangeJob], r.FinalSaving[ExchangeBoth])
	}
}

func TestFig11ConvergenceDetected(t *testing.T) {
	a, err := Fig11a()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range a.Rows {
		if row.Converged == 0 {
			t.Errorf("fig11a: no convergence at %d machines", row.Count)
		}
	}
	b, err := Fig11b()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range b.Rows {
		if row.Converged == 0 {
			t.Errorf("fig11b: no convergence at %d jobs", row.Count)
		}
	}
}

func TestFig12bShape(t *testing.T) {
	r, err := Fig12b()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) < 4 {
		t.Fatalf("only %d interval samples", len(r.Rows))
	}
	// The paper's curve rises then falls; require an interior or
	// late-interior peak (not the shortest interval).
	if r.PeakInterval() == r.Rows[0].Interval {
		t.Errorf("saving peaks at the shortest interval %v; paper's curve rises first", r.PeakInterval())
	}
}

func TestTables(t *testing.T) {
	if got := experimentsTableString(TableI()); !strings.Contains(got, "T420") {
		t.Error("Table I missing T420")
	}
	if got := experimentsTableString(TableII()); !strings.Contains(got, "Wordcount") {
		t.Error("Table II missing Wordcount column")
	}
	t3, err := TableIII(87, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := experimentsTableString(t3)
	for _, class := range []string{"S", "M", "L"} {
		if !strings.Contains(got, class) {
			t.Errorf("Table III missing class %s", class)
		}
	}
}

func experimentsTableString(t *tabwrite.Table) string { return t.String() }
