// Package experiments reproduces every table and figure of the paper's
// motivation and evaluation sections. Each FigNN/TableNN function is a
// self-contained harness that builds the cluster, generates the workload,
// runs the simulation, and returns typed rows with a Table() renderer that
// prints the same series the paper plots.
//
// Scaling. The paper's testbed ran 300 GB inputs and a 5-minute control
// interval for hours; the default configurations here shrink inputs by
// ScaleDown (64×) and the control interval proportionally, so the full
// suite runs in seconds while preserving the quantities the paper reports
// as *shapes* (orderings, crossovers, ratios). EXPERIMENTS.md records
// paper-vs-measured for every experiment.
package experiments

import (
	"fmt"
	"time"

	"eant/internal/cluster"
	"eant/internal/core"
	"eant/internal/mapreduce"
	"eant/internal/noise"
	"eant/internal/probe"
	"eant/internal/sched"
	"eant/internal/sim"
	"eant/internal/workload"
)

// ScaleDown is the default input-size divisor relative to the paper's
// testbed workloads.
const ScaleDown = 64

// DefaultControlInterval is the paper's 5-minute control interval scaled
// to the shrunken task durations (tasks shrink ~10×, intervals likewise).
const DefaultControlInterval = 30 * time.Second

// DefaultSeed keeps every experiment reproducible by default.
const DefaultSeed = 1

// SchedulerName selects a task-assignment policy.
type SchedulerName string

// Scheduler choices used across the evaluation.
const (
	SchedFIFO   SchedulerName = "FIFO"
	SchedFair   SchedulerName = "Fair"
	SchedTarazu SchedulerName = "Tarazu"
	SchedLATE   SchedulerName = "LATE"
	SchedCap    SchedulerName = "Capacity"
	SchedEAnt   SchedulerName = "E-Ant"
)

// NewScheduler builds a fresh scheduler instance. E-Ant takes params; the
// baselines ignore them.
func NewScheduler(name SchedulerName, params core.Params) (mapreduce.Scheduler, error) {
	switch name {
	case SchedFIFO:
		return sched.NewFIFO(), nil
	case SchedFair:
		return sched.NewFair(), nil
	case SchedTarazu:
		return sched.NewTarazu(), nil
	case SchedLATE:
		return sched.NewLATE(), nil
	case SchedCap:
		return sched.NewCapacity(nil, nil)
	case SchedEAnt:
		return core.NewEAnt(params)
	default:
		return nil, fmt.Errorf("experiments: unknown scheduler %q", name)
	}
}

// Campaign describes one simulated cluster run.
type Campaign struct {
	Cluster *cluster.Cluster
	Sched   SchedulerName
	Params  core.Params
	Jobs    []workload.JobSpec
	Config  mapreduce.Config
	Horizon time.Duration
}

// defaultDriverConfig is the experiment-wide driver configuration: paper
// heartbeat, scaled control interval, evaluation noise.
func defaultDriverConfig() mapreduce.Config {
	cfg := mapreduce.DefaultConfig()
	cfg.ControlInterval = DefaultControlInterval
	cfg.Seed = DefaultSeed
	cfg.Noise = noise.Default()
	return cfg
}

// foldProbe builds the probe of one run whose events an experiment folds
// as they are recorded: every event goes to fold, and since fold, not the
// ring, is the consumer, the ring holds one event instead of the default
// 65 536. Each run gets its own probe, so parallel cells share nothing.
func foldProbe(trails bool, fold func(probe.Event)) *probe.Probe {
	p, err := probe.New(probe.Config{RingSize: 1, Trails: trails, Sink: fold})
	if err != nil {
		panic(err) // a one-event ring and default bounds are always valid
	}
	return p
}

// Run executes the campaign and returns its statistics.
func (c Campaign) Run() (*mapreduce.Stats, error) {
	s, err := NewScheduler(c.Sched, c.Params)
	if err != nil {
		return nil, err
	}
	d, err := mapreduce.NewDriver(c.Cluster, s, c.Config)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	horizon := c.Horizon
	if horizon == 0 {
		horizon = 48 * time.Hour
	}
	stats, err := d.Run(c.Jobs, horizon)
	if err != nil {
		return nil, fmt.Errorf("experiments: campaign %s: %w", c.Sched, err)
	}
	return stats, nil
}

// openLoopTasks builds the §II motivation workload: single-block map-only
// jobs of one application arriving at a fixed rate for the given span.
// Each "task" of the paper's task-arrival-rate studies is one such job.
func openLoopTasks(app workload.App, perMinute float64, span time.Duration) []workload.JobSpec {
	if perMinute <= 0 {
		return nil
	}
	spacing := time.Duration(float64(time.Minute) / perMinute)
	var jobs []workload.JobSpec
	id := 0
	for at := time.Duration(0); at < span; at += spacing {
		jobs = append(jobs, workload.NewJobSpec(id, app, workload.BlockMB, 0, at))
		id++
	}
	return jobs
}

// msdJobs generates the §V-C Microsoft-derived workload at the default
// evaluation scale.
func msdJobs(jobs int, seed int64) ([]workload.JobSpec, error) {
	cfg := workload.MSDConfig{
		Jobs:             jobs,
		Scale:            ScaleDown,
		MeanInterarrival: 30 * time.Second,
	}
	return workload.GenerateMSD(cfg, newRNG(seed))
}

// newRNG builds a workload-generation stream independent of driver seeds.
func newRNG(seed int64) *sim.RNG { return sim.NewRNG(seed).Fork("experiments") }
