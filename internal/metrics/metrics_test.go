package metrics

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"eant/internal/mapreduce"
	"eant/internal/probe"
	"eant/internal/workload"
)

func TestNRMSEPerfectPrediction(t *testing.T) {
	v, err := NRMSE([]float64{1, 2, 3}, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if v != 0 {
		t.Errorf("NRMSE of perfect prediction = %v, want 0", v)
	}
}

func TestNRMSEKnownValue(t *testing.T) {
	// actual mean 10; errors all +1 → RMSE 1 → NRMSE 0.1.
	v, err := NRMSE([]float64{10, 10, 10}, []float64{11, 11, 11})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-0.1) > 1e-12 {
		t.Errorf("NRMSE = %v, want 0.1", v)
	}
}

func TestNRMSEErrors(t *testing.T) {
	if _, err := NRMSE([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := NRMSE(nil, nil); err == nil {
		t.Error("empty series accepted")
	}
	if _, err := NRMSE([]float64{1, -1}, []float64{1, -1}); err == nil {
		t.Error("zero-mean actuals accepted")
	}
}

func TestNRMSENonNegativeProperty(t *testing.T) {
	f := func(a []float64) bool {
		if len(a) == 0 {
			return true
		}
		pred := make([]float64, len(a))
		var mean float64
		for i, x := range a {
			x = math.Mod(x, 1e6)
			if math.IsNaN(x) {
				x = 0
			}
			a[i] = x + 1 // keep mean positive
			pred[i] = a[i] * 1.1
			mean += a[i]
		}
		if mean == 0 {
			return true
		}
		v, err := NRMSE(a, pred)
		return err == nil && v >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestThroughputPerWatt(t *testing.T) {
	// 60 tasks in 60 s at 100 W mean power (6000 J): 1 task/s / 100 W.
	got := ThroughputPerWatt(60, time.Minute, 6000)
	if math.Abs(got-0.01) > 1e-12 {
		t.Errorf("ThroughputPerWatt = %v, want 0.01", got)
	}
	if ThroughputPerWatt(10, 0, 100) != 0 {
		t.Error("zero elapsed should give 0")
	}
	if ThroughputPerWatt(10, time.Second, 0) != 0 {
		t.Error("zero energy should give 0")
	}
}

func TestMeanAndVariance(t *testing.T) {
	xs := []float64{2, 4, 6}
	if Mean(xs) != 4 {
		t.Errorf("Mean = %v, want 4", Mean(xs))
	}
	if v := Variance(xs); math.Abs(v-8.0/3.0) > 1e-12 {
		t.Errorf("Variance = %v, want 8/3", v)
	}
	if Mean(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Error("degenerate cases should be 0")
	}
}

func result(id int, app workload.App, submit, finish time.Duration) mapreduce.JobResult {
	return mapreduce.JobResult{
		Spec:      workload.NewJobSpec(id, app, 640, 1, submit),
		Submitted: submit,
		Finished:  finish,
	}
}

func TestSlowdowns(t *testing.T) {
	results := []mapreduce.JobResult{
		result(0, workload.Grep, 0, 100*time.Second),
		result(1, workload.Grep, 0, 200*time.Second),
	}
	sd, err := Slowdowns(results, func(mapreduce.JobResult) time.Duration { return 100 * time.Second })
	if err != nil {
		t.Fatal(err)
	}
	if sd[0] != 1 || sd[1] != 2 {
		t.Errorf("slowdowns = %v, want [1 2]", sd)
	}
}

func TestSlowdownsErrors(t *testing.T) {
	if _, err := Slowdowns(nil, nil); err == nil {
		t.Error("empty results accepted")
	}
	results := []mapreduce.JobResult{result(0, workload.Grep, 0, time.Second)}
	if _, err := Slowdowns(results, func(mapreduce.JobResult) time.Duration { return 0 }); err == nil {
		t.Error("zero standalone accepted")
	}
}

func TestFairness(t *testing.T) {
	// Identical slowdowns: maximal fairness (capped).
	if f := Fairness([]float64{2, 2, 2}); f != 1000 {
		t.Errorf("uniform fairness = %v, want cap 1000", f)
	}
	// Higher variance → lower fairness.
	low := Fairness([]float64{1, 3})
	lower := Fairness([]float64{1, 9})
	if low <= lower {
		t.Errorf("fairness not monotone in variance: %v vs %v", low, lower)
	}
}

func TestEnergySavingPercent(t *testing.T) {
	if got := EnergySavingPercent(100, 83); math.Abs(got-17) > 1e-12 {
		t.Errorf("saving = %v, want 17", got)
	}
	if got := EnergySavingPercent(0, 10); got != 0 {
		t.Errorf("zero baseline saving = %v, want 0", got)
	}
	if got := EnergySavingPercent(100, 110); got != -10 {
		t.Errorf("negative saving = %v, want -10", got)
	}
}

// start is n task starts of one job on one machine.
type start struct{ job, machine, n int }

// history renders control intervals as the probe events ConvergenceTime
// reads: interval i's assign events, then the control_tick closing it at
// minute i+1.
func history(intervals ...[]start) []probe.Event {
	var evs []probe.Event
	for i, iv := range intervals {
		for _, s := range iv {
			for k := 0; k < s.n; k++ {
				evs = append(evs, probe.Event{Kind: probe.KindAssign, JobID: int32(s.job), MachineID: int32(s.machine)})
			}
		}
		evs = append(evs, probe.Event{At: time.Duration(i+1) * time.Minute, Kind: probe.KindControlTick})
	}
	return evs
}

func TestConvergenceTimeDetectsStability(t *testing.T) {
	// Interval 1: all on machine 0. Interval 2: split. Interval 3: 9/10
	// revisit interval 2's machines → stable at interval 3.
	evs := history(
		[]start{{7, 0, 10}},
		[]start{{7, 1, 5}, {7, 2, 5}},
		[]start{{7, 1, 5}, {7, 2, 4}, {7, 3, 1}},
	)
	at, ok := ConvergenceTime(evs, 7, 0.8)
	if !ok {
		t.Fatal("stable assignment not detected")
	}
	if at != 3*time.Minute {
		t.Errorf("convergence at %v, want 3m", at)
	}
}

func TestConvergenceTimeNeverStable(t *testing.T) {
	evs := history(
		[]start{{7, 0, 10}},
		[]start{{7, 1, 10}},
		[]start{{7, 2, 10}},
	)
	if _, ok := ConvergenceTime(evs, 7, 0.8); ok {
		t.Error("oscillating assignment reported stable")
	}
}

func TestConvergenceTimeSkipsEmptyIntervals(t *testing.T) {
	// The empty second interval keeps the first as the comparison base.
	evs := history(
		[]start{{7, 0, 10}},
		nil,
		[]start{{7, 0, 10}},
	)
	at, ok := ConvergenceTime(evs, 7, 0.8)
	if !ok || at != 3*time.Minute {
		t.Errorf("convergence = %v,%v; want 3m,true", at, ok)
	}
}

// TestConvergenceTimeIgnoresUnclosedAssigns: task starts after the last
// control tick close no interval, so they cannot make the job stable.
func TestConvergenceTimeIgnoresUnclosedAssigns(t *testing.T) {
	evs := history([]start{{7, 0, 10}})
	evs = append(evs, history([]start{{7, 0, 10}})[:10]...)
	if at, ok := ConvergenceTime(evs, 7, 0.8); ok {
		t.Errorf("converged at %v on assigns no tick closed", at)
	}
}

// TestConvergenceTimeIgnoresOtherJobs: another job's starts in the same
// intervals neither dilute nor fill the measured job's distribution.
func TestConvergenceTimeIgnoresOtherJobs(t *testing.T) {
	evs := history(
		[]start{{7, 0, 10}, {8, 5, 30}},
		[]start{{8, 0, 30}},
		[]start{{7, 0, 10}, {8, 1, 30}},
	)
	at, ok := ConvergenceTime(evs, 7, 0.8)
	if !ok || at != 3*time.Minute {
		t.Errorf("convergence = %v,%v; want 3m,true", at, ok)
	}
	if _, ok := ConvergenceTime(evs, 8, 0.8); ok {
		t.Error("job 8 moves every interval but was reported stable")
	}
}

func TestMeanConvergenceTime(t *testing.T) {
	evs := history(
		[]start{{1, 0, 10}, {2, 0, 10}},
		[]start{{1, 0, 10}, {2, 5, 10}},
		[]start{{2, 5, 10}},
	)
	mean, n := MeanConvergenceTime(evs, []int{1, 2, 99}, 0.8)
	if n != 2 {
		t.Fatalf("converged count = %d, want 2", n)
	}
	// Job 1 converges at 2m, job 2 at 3m → mean 2.5m.
	if mean != 150*time.Second {
		t.Errorf("mean convergence = %v, want 2m30s", mean)
	}
}
