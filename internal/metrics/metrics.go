// Package metrics computes the evaluation-section measures of the paper:
// normalized root-mean-square error of the energy model (Fig. 4),
// throughput per watt (Figs. 1a/1c), job slowdown and fairness as inverse
// slowdown variance (Fig. 12a), and the task-assignment convergence
// detector behind the search-speed study (Fig. 11).
package metrics

import (
	"fmt"
	"math"
	"time"

	"eant/internal/mapreduce"
	"eant/internal/probe"
)

// NRMSE returns the root-mean-square error between predicted and actual,
// normalized by the mean of actual — the deviation metric the paper uses
// to validate its energy model (§IV-B).
func NRMSE(actual, predicted []float64) (float64, error) {
	if len(actual) != len(predicted) {
		return 0, fmt.Errorf("metrics: NRMSE over %d actual vs %d predicted", len(actual), len(predicted))
	}
	if len(actual) == 0 {
		return 0, fmt.Errorf("metrics: NRMSE of empty series")
	}
	var sse, sum float64
	for i := range actual {
		d := predicted[i] - actual[i]
		sse += d * d
		sum += actual[i]
	}
	mean := sum / float64(len(actual))
	if mean == 0 {
		return 0, fmt.Errorf("metrics: NRMSE with zero-mean actuals")
	}
	return math.Sqrt(sse/float64(len(actual))) / math.Abs(mean), nil
}

// ThroughputPerWatt returns completed tasks per second per watt — the
// energy-efficiency measure of the motivation study (§II).
func ThroughputPerWatt(tasksDone int, elapsed time.Duration, joules float64) float64 {
	if elapsed <= 0 || joules <= 0 {
		return 0
	}
	watts := joules / elapsed.Seconds()
	return float64(tasksDone) / elapsed.Seconds() / watts
}

// Mean returns the arithmetic mean; zero for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance; zero for fewer than two
// values.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	mean := Mean(xs)
	var sse float64
	for _, x := range xs {
		d := x - mean
		sse += d * d
	}
	return sse / float64(len(xs))
}

// Slowdowns returns each job's slowdown: actual completion time divided by
// its standalone completion time [18]. standalone maps a job's class label
// (e.g. "Wordcount-S") or app name to its alone-in-the-cluster JCT.
func Slowdowns(results []mapreduce.JobResult, standalone func(mapreduce.JobResult) time.Duration) ([]float64, error) {
	if len(results) == 0 {
		return nil, fmt.Errorf("metrics: no job results")
	}
	out := make([]float64, 0, len(results))
	for _, r := range results {
		base := standalone(r)
		if base <= 0 {
			return nil, fmt.Errorf("metrics: job %d has non-positive standalone time", r.Spec.ID)
		}
		out = append(out, float64(r.CompletionTime())/float64(base))
	}
	return out, nil
}

// Fairness is the paper's §VI-D definition: the inverse of the variance in
// job slowdowns. A perfectly fair system (identical slowdowns) has
// unbounded fairness; the cap keeps plots finite.
func Fairness(slowdowns []float64) float64 {
	const ceiling = 1000.0
	v := Variance(slowdowns)
	if v <= 1/ceiling {
		return ceiling
	}
	return 1 / v
}

// EnergySavingPercent returns how much less energy b used than a, in
// percent of a.
func EnergySavingPercent(aJoules, bJoules float64) float64 {
	if aJoules <= 0 {
		return 0
	}
	return 100 * (aJoules - bJoules) / aJoules
}

// ConvergenceTime scans a run's probe events for the first control
// interval at which job jobID's assignment is "stable" per the paper's
// §VI-C criterion: at least stableFraction (0.8) of the interval's tasks
// revisit the machines used in the previous interval. An interval's tasks
// are the job's assign events recorded before the control_tick event that
// closes it; assigns after the last tick close no interval. It returns the
// time of that closing tick and true, or zero and false if the job never
// stabilizes.
func ConvergenceTime(events []probe.Event, jobID int, stableFraction float64) (time.Duration, bool) {
	// prev and cur count the job's task starts per machine; prev is empty
	// until an interval with assignments has closed.
	prev, cur := map[int32]int{}, map[int32]int{}
	for _, ev := range events {
		switch {
		case ev.Kind == probe.KindAssign && int(ev.JobID) == jobID:
			cur[ev.MachineID]++
		case ev.Kind == probe.KindControlTick:
			if len(cur) == 0 {
				// No assignments this interval; keep the previous
				// distribution for comparison.
				continue
			}
			if len(prev) > 0 {
				total := 0
				revisit := 0
				for machineID, n := range cur {
					total += n
					if p := prev[machineID]; p > 0 {
						revisit += min(n, p)
					}
				}
				if float64(revisit)/float64(total) >= stableFraction {
					return ev.At, true
				}
			}
			prev, cur = cur, prev
			clear(cur)
		}
	}
	return 0, false
}

// TrailConvergence scans a pheromone-trail history for the first control
// tick at which the trail has stabilized: the mean absolute per-machine
// change from the previous snapshot stays below tolerance (relative to
// the row mean, which is 1 for E-Ant's normalized trails). rows[i] is the
// trail at times[i]; both must align. It returns the stabilization time
// and true, or zero and false.
func TrailConvergence(times []time.Duration, rows [][]float64, tolerance float64) (time.Duration, bool) {
	return TrailConvergenceOn(times, rows, nil, tolerance)
}

// TrailConvergenceOn is TrailConvergence restricted to the trail entries
// of the given machine IDs (nil means all machines) — used when the
// question is how fast the policy stabilizes for one homogeneous machine
// group rather than the whole fleet.
func TrailConvergenceOn(times []time.Duration, rows [][]float64, machineIDs []int, tolerance float64) (time.Duration, bool) {
	if len(times) != len(rows) {
		return 0, false
	}
	for i := 1; i < len(rows); i++ {
		prev, cur := rows[i-1], rows[i]
		if len(prev) != len(cur) || len(cur) == 0 {
			continue
		}
		ids := machineIDs
		if ids == nil {
			ids = make([]int, len(cur))
			for m := range cur {
				ids[m] = m
			}
		}
		var l1 float64
		n := 0
		for _, m := range ids {
			if m < 0 || m >= len(cur) {
				continue
			}
			l1 += math.Abs(cur[m] - prev[m])
			n++
		}
		if n > 0 && l1/float64(n) <= tolerance {
			return times[i], true
		}
	}
	return 0, false
}

// MeanConvergenceTime averages ConvergenceTime over the given job IDs,
// counting only jobs that converged; the second return is how many did.
func MeanConvergenceTime(events []probe.Event, jobIDs []int, stableFraction float64) (time.Duration, int) {
	var sum time.Duration
	n := 0
	for _, id := range jobIDs {
		if at, ok := ConvergenceTime(events, id, stableFraction); ok {
			sum += at
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return sum / time.Duration(n), n
}
