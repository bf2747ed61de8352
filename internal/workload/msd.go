package workload

import (
	"fmt"
	"math"
	"time"

	"eant/internal/sim"
)

// Table III class bounds (paper §V-C). Shares are of the *original*
// Microsoft distribution; the remaining 30 % (largest 10 %, smallest 20 %)
// were eliminated when the authors scaled the workload down to their
// cluster, so Generate renormalizes the shares over the surviving classes.
type classBounds struct {
	class      SizeClass
	share      float64
	minInputMB float64
	maxInputMB float64
	minReduces int
	maxReduces int
}

var msdClasses = []classBounds{
	{Small, 0.40, 1 * 1024, 100 * 1024, 4, 128},
	{Medium, 0.20, 100 * 1024, 1024 * 1024, 128, 256},
	{Large, 0.10, 1024 * 1024, 10 * 1024 * 1024, 256, 1024},
}

// MSDConfig parameterizes the Microsoft-derived synthetic workload.
type MSDConfig struct {
	// Jobs is the total job count. The paper uses 87.
	Jobs int
	// Scale divides every job's input size (and reduce count,
	// proportionally), letting tests and benches run the same
	// distributional shape at laptop scale. 1.0 reproduces the paper's
	// sizes.
	Scale float64
	// MeanInterarrival is the mean of the exponential job inter-arrival
	// time. Zero submits every job at time zero.
	MeanInterarrival time.Duration
	// Apps optionally restricts the application mix; nil means the full
	// {Wordcount, Grep, Terasort} rotation.
	Apps []App
}

// Validate reports the first problem with the configuration.
func (c MSDConfig) Validate() error {
	if c.Jobs <= 0 {
		return fmt.Errorf("workload: MSD with %d jobs", c.Jobs)
	}
	if c.Scale <= 0 {
		return fmt.Errorf("workload: MSD with scale %v", c.Scale)
	}
	if c.MeanInterarrival < 0 {
		return fmt.Errorf("workload: MSD with negative interarrival")
	}
	return nil
}

// GenerateMSD synthesizes the MSD job list: class counts follow the
// renormalized Table III shares, input sizes are log-uniform within class
// bounds, applications rotate round-robin (shuffled), and arrivals follow a
// Poisson process. Deterministic for a given RNG stream.
func GenerateMSD(cfg MSDConfig, rng *sim.RNG) ([]JobSpec, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	apps := cfg.Apps
	if len(apps) == 0 {
		apps = Apps()
	}

	var shareTotal float64
	for _, cb := range msdClasses {
		shareTotal += cb.share
	}

	// Integer class counts by largest remainder so they always sum to Jobs.
	counts := make([]int, len(msdClasses))
	remainders := make([]float64, len(msdClasses))
	assigned := 0
	for i, cb := range msdClasses {
		exact := float64(cfg.Jobs) * cb.share / shareTotal
		counts[i] = int(exact)
		remainders[i] = exact - float64(counts[i])
		assigned += counts[i]
	}
	for assigned < cfg.Jobs {
		best := 0
		for i := range remainders {
			if remainders[i] > remainders[best] {
				best = i
			}
		}
		counts[best]++
		remainders[best] = -1
		assigned++
	}

	var jobs []JobSpec
	id := 0
	for ci, cb := range msdClasses {
		for k := 0; k < counts[ci]; k++ {
			inputMB := logUniform(rng, cb.minInputMB, cb.maxInputMB) / cfg.Scale
			if inputMB < BlockMB {
				inputMB = BlockMB
			}
			app := apps[id%len(apps)]
			j := NewJobSpec(id, app, inputMB, 0, 0)
			// Table III ties reduce counts to job size (≈ maps/12 across
			// all three classes). Deriving reduces from the scaled map
			// count keeps per-reduce shuffle volume block-like at any
			// scale — scaling shrinks task *counts*, never balloons task
			// *sizes* — while clamping to the class's published range.
			j.NumReduces = clampInt(j.NumMaps/12, 1, cb.maxReduces)
			j.Class = cb.class
			jobs = append(jobs, j)
			id++
		}
	}

	// Shuffle so arrival order interleaves classes and apps, then lay a
	// Poisson arrival process over the shuffled order.
	rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	var at time.Duration
	for i := range jobs {
		jobs[i].ID = i
		jobs[i].Submit = at
		if cfg.MeanInterarrival > 0 {
			at += time.Duration(rng.Exp(float64(cfg.MeanInterarrival)))
		}
	}
	return jobs, nil
}

// clampInt bounds v to [lo, hi].
func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// logUniform samples log-uniformly in [lo, hi].
func logUniform(rng *sim.RNG, lo, hi float64) float64 {
	if lo >= hi {
		return lo
	}
	return math.Exp(rng.Uniform(math.Log(lo), math.Log(hi)))
}

// Batch builds n identical jobs of one application submitted with fixed
// spacing — the building block of the motivation and sensitivity studies.
func Batch(app App, n int, inputMB float64, reduces int, spacing time.Duration) []JobSpec {
	jobs := make([]JobSpec, 0, n)
	for i := 0; i < n; i++ {
		jobs = append(jobs, NewJobSpec(i, app, inputMB, reduces, time.Duration(i)*spacing))
	}
	return jobs
}

// ClassCounts tallies jobs per size class, for Table III reporting.
func ClassCounts(jobs []JobSpec) map[SizeClass]int {
	out := make(map[SizeClass]int)
	for _, j := range jobs {
		out[j.Class]++
	}
	return out
}
