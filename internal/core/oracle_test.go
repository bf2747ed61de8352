package core

import (
	"math"
	"reflect"
	"testing"
	"time"

	"eant/internal/cluster"
	"eant/internal/mapreduce"
	"eant/internal/noise"
	"eant/internal/sim"
	"eant/internal/workload"
)

// This file holds the paper-literal forms of Eq. 8 and of the roulette
// distribution, which the optimized policy must reproduce; core_test calls
// them as core.HeuristicWeight and core.SelectionProbabilities.

// HeuristicWeight evaluates the Eq. 8 numerator τ·η^β. β ≤ 0 disables the
// heuristic term entirely (pure pheromone selection).
func HeuristicWeight(tau, eta, beta float64) float64 {
	if beta <= 0 {
		return tau
	}
	return tau * math.Pow(eta, beta)
}

// SelectionProbabilities returns the distribution RouletteSelect draws
// from: p[i] = eff(i)/Σeff with the same zeroing of non-positive,
// non-finite and unavailable weights, falling back to uniform over the
// eligible indices when every effective weight is zero. The result always
// sums to 1 (within float tolerance) and contains no NaN or Inf; it is nil
// when no index is eligible.
func SelectionProbabilities(weights []float64, available []bool) []float64 {
	if len(weights) == 0 {
		return nil
	}
	if available != nil && len(available) != len(weights) {
		return nil
	}
	p := make([]float64, len(weights))
	var total float64
	eligibleCount := 0
	for i, w := range weights {
		if available != nil && !available[i] {
			continue
		}
		eligibleCount++
		if w > 0 && !math.IsInf(w, 0) && !math.IsNaN(w) {
			p[i] = w
			total += w
		}
	}
	if eligibleCount == 0 {
		return nil
	}
	if total <= 0 {
		u := 1 / float64(eligibleCount)
		for i := range p {
			if available == nil || available[i] {
				p[i] = u
			}
		}
		return p
	}
	if math.IsInf(total, 1) {
		// Σw overflows: the roulette walk's cursor is +Inf (or NaN) and
		// never goes negative, so every draw falls through to the last
		// index (nil mask) or the last eligible positive-weight index.
		last := len(p) - 1
		if available != nil {
			for i := range p {
				if p[i] > 0 {
					last = i
				}
			}
		}
		for i := range p {
			p[i] = 0
		}
		p[last] = 1
		return p
	}
	for i := range p {
		p[i] /= total
	}
	return p
}

// weighed is an E-Ant scheduler that, before each offer it answers, checks
// every candidate colony's weight against HeuristicWeight evaluated from
// the colony's trail on the offering machine and Eq. 7's η: EtaMax for a
// map colony with a local block there, the fairness branch otherwise. It
// resolves colonies in selectColony's candidate order, so the run makes
// the decisions of an unwrapped one.
type weighed struct {
	*EAnt
	t           *testing.T
	local, fair int // comparisons made in each η branch
}

func (w *weighed) check(ctx *mapreduce.Context, m cluster.Machine, kind mapreduce.TaskKind, candidate func(*mapreduce.Job) bool) {
	for _, j := range ctx.ActiveJobs() {
		if !candidate(j) {
			continue
		}
		c := w.mx.colonyAt(j.Slot(), key(j, kind))
		eta := w.eta(ctx, j)
		if kind == mapreduce.MapTask && ctx.HasLocalMap(j, m) {
			eta = w.p.EtaMax
			w.local++
		} else {
			w.fair++
		}
		got, want := w.weight(ctx, j, c, kind, m), HeuristicWeight(c.row[m.ID()], eta, w.p.Beta)
		if math.Float64bits(got) != math.Float64bits(want) {
			w.t.Fatalf("job %d %v on %v: weight %v, HeuristicWeight %v", j.Spec.ID, kind, m, got, want)
		}
	}
}

func (w *weighed) AssignMap(ctx *mapreduce.Context, m cluster.Machine) *mapreduce.Task {
	w.init(ctx)
	if ctx.PendingTasks(mapreduce.MapTask) > 0 {
		w.check(ctx, m, mapreduce.MapTask, func(j *mapreduce.Job) bool { return j.PendingMaps() > 0 })
	}
	return w.EAnt.AssignMap(ctx, m)
}

func (w *weighed) AssignReduce(ctx *mapreduce.Context, m cluster.Machine) *mapreduce.Task {
	w.init(ctx)
	if ctx.ReadyReduceTasks() > 0 {
		w.check(ctx, m, mapreduce.ReduceTask, ctx.ReduceReady)
	}
	return w.EAnt.AssignReduce(ctx, m)
}

// TestWeightMatchesHeuristicWeight: over every offer of a small noisy MSD
// run, E-Ant's memoized weight is bit-identical to HeuristicWeight, in
// both η branches, at the default β and with the heuristic off (β = 0),
// and the checked run's Stats equal an unwrapped run's.
func TestWeightMatchesHeuristicWeight(t *testing.T) {
	jobs, err := workload.GenerateMSD(workload.MSDConfig{Jobs: 12, Scale: 64, MeanInterarrival: 30 * time.Second}, sim.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	run := func(s mapreduce.Scheduler) *mapreduce.Stats {
		cfg := mapreduce.DefaultConfig()
		cfg.ControlInterval = 30 * time.Second
		cfg.Seed = 3
		cfg.Noise = noise.Default()
		d, err := mapreduce.NewDriver(cluster.Testbed(), s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := d.Run(jobs, 24*time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	for _, beta := range []float64{DefaultParams().Beta, 0} {
		p := DefaultParams()
		p.Beta = beta
		w := &weighed{EAnt: MustNewEAnt(p), t: t}
		checked := run(w)
		if w.local == 0 || w.fair == 0 {
			t.Fatalf("β %v: %d locality and %d fairness comparisons; want both", beta, w.local, w.fair)
		}
		if plain := run(MustNewEAnt(p)); !reflect.DeepEqual(checked, plain) {
			t.Errorf("β %v: the checked run's Stats differ from an unwrapped run's", beta)
		}
	}
}
