package metrics

import (
	"math"
	"strings"
	"testing"
	"time"

	"eant/internal/mapreduce"
	"eant/internal/workload"
)

// TestNRMSEErrorMessages pins the exact wording callers and logs match on.
func TestNRMSEErrorMessages(t *testing.T) {
	cases := []struct {
		name      string
		actual    []float64
		predicted []float64
		contains  string
	}{
		{"length mismatch", []float64{1, 2, 3}, []float64{1}, "NRMSE over 3 actual vs 1 predicted"},
		{"both empty", nil, nil, "NRMSE of empty series"},
		{"zero-mean actuals", []float64{5, -5}, []float64{5, -5}, "NRMSE with zero-mean actuals"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := NRMSE(c.actual, c.predicted)
			if err == nil {
				t.Fatal("want error")
			}
			if !strings.Contains(err.Error(), c.contains) {
				t.Errorf("error %q does not contain %q", err, c.contains)
			}
		})
	}
}

// TestNRMSENegativeMeanActuals: normalization uses |mean|, so an
// all-negative series yields the same (positive) NRMSE as its mirror.
func TestNRMSENegativeMeanActuals(t *testing.T) {
	pos, err := NRMSE([]float64{2, 4}, []float64{3, 3})
	if err != nil {
		t.Fatal(err)
	}
	neg, err := NRMSE([]float64{-2, -4}, []float64{-3, -3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pos-neg) > 1e-15 || neg <= 0 {
		t.Errorf("NRMSE mirror: %v vs %v", pos, neg)
	}
}

func TestSlowdownsErrorMessages(t *testing.T) {
	if _, err := Slowdowns(nil, nil); err == nil || !strings.Contains(err.Error(), "metrics: no job results") {
		t.Errorf("empty results: %v", err)
	}
	results := []mapreduce.JobResult{{
		Spec:      workload.NewJobSpec(42, workload.Grep, 640, 1, 0),
		Submitted: 0,
		Finished:  time.Second,
	}}
	_, err := Slowdowns(results, func(mapreduce.JobResult) time.Duration { return -time.Second })
	if err == nil || !strings.Contains(err.Error(), "job 42 has non-positive standalone time") {
		t.Errorf("negative standalone: %v", err)
	}
}

// TestThroughputPerWattGuards tables the degenerate inputs that must all
// yield zero rather than Inf or NaN.
func TestThroughputPerWattGuards(t *testing.T) {
	cases := []struct {
		name    string
		tasks   int
		elapsed time.Duration
		joules  float64
	}{
		{"zero elapsed", 10, 0, 100},
		{"negative elapsed", 10, -time.Second, 100},
		{"zero joules", 10, time.Second, 0},
		{"negative joules", 10, time.Second, -5},
		{"all zero", 0, 0, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := ThroughputPerWatt(c.tasks, c.elapsed, c.joules); got != 0 {
				t.Errorf("ThroughputPerWatt = %v, want 0", got)
			}
		})
	}
}

// TestTrailConvergenceOnDegenerateInputs tables the inputs that must
// report "never converged" instead of indexing out of bounds.
func TestTrailConvergenceOnDegenerateInputs(t *testing.T) {
	flat := [][]float64{{1, 1}, {1, 1}}
	cases := []struct {
		name  string
		times []time.Duration
		rows  [][]float64
		ids   []int
	}{
		{"times/rows length mismatch", []time.Duration{1}, flat, nil},
		{"no snapshots", nil, nil, nil},
		{"single snapshot", []time.Duration{1}, [][]float64{{1, 1}}, nil},
		{"empty rows", []time.Duration{1, 2}, [][]float64{{}, {}}, nil},
		{"row width change", []time.Duration{1, 2}, [][]float64{{1}, {1, 1}}, nil},
		{"all machine IDs out of range", []time.Duration{1, 2}, flat, []int{-1, 7}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if at, ok := TrailConvergenceOn(c.times, c.rows, c.ids, 0.1); ok || at != 0 {
				t.Errorf("got (%v, %v), want (0, false)", at, ok)
			}
		})
	}
	// Sanity: the same flat history converges when the inputs align.
	if _, ok := TrailConvergenceOn([]time.Duration{1, 2}, flat, nil, 0.1); !ok {
		t.Error("aligned flat history should converge")
	}
	// Partially valid machine IDs: out-of-range entries are skipped, the
	// in-range one still drives convergence.
	if _, ok := TrailConvergenceOn([]time.Duration{1, 2}, flat, []int{-1, 0, 7}, 0.1); !ok {
		t.Error("in-range machine ID should still converge")
	}
}

func TestMeanConvergenceTimeNoJobsConverge(t *testing.T) {
	evs := history(
		[]start{{0, 0, 5}},
		[]start{{0, 1, 5}},
	)
	// Job 0 flips machines (never stable); job 9 never appears.
	mean, n := MeanConvergenceTime(evs, []int{0, 9}, 0.8)
	if mean != 0 || n != 0 {
		t.Errorf("got (%v, %d), want (0, 0)", mean, n)
	}
	if mean, n = MeanConvergenceTime(evs, nil, 0.8); mean != 0 || n != 0 {
		t.Errorf("empty job list: got (%v, %d), want (0, 0)", mean, n)
	}
}

func TestEnergySavingPercentGuards(t *testing.T) {
	if got := EnergySavingPercent(0, 50); got != 0 {
		t.Errorf("zero baseline: %v, want 0", got)
	}
	if got := EnergySavingPercent(-10, 5); got != 0 {
		t.Errorf("negative baseline: %v, want 0", got)
	}
}

func TestFairnessDegenerate(t *testing.T) {
	if got := Fairness(nil); got != 1000 {
		t.Errorf("no slowdowns: %v, want ceiling", got)
	}
	if got := Fairness([]float64{3}); got != 1000 {
		t.Errorf("single slowdown: %v, want ceiling", got)
	}
}
