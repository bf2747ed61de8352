// Package experiments reproduces every table and figure of the paper's
// motivation and evaluation sections. Each FigNN/TableNN function is a
// self-contained harness that builds the cluster, generates the workload,
// runs the simulation, and returns typed rows with a Table() renderer that
// prints the same series the paper plots.
//
// Running. A harness builds its grid of (scheduler, level, seed) cells as
// one []Campaign sharing one cluster value per fleet, runs it with one
// RunAll call, the only way a campaign runs here and in the root package,
// and folds the returned statistics in grid order.
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
	"sync"
	"time"

	"eant/internal/cluster"
	"eant/internal/core"
	"eant/internal/mapreduce"
	"eant/internal/noise"
	"eant/internal/parallel"
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

// Campaign describes one simulated cluster run. A Horizon of zero or
// less runs to completion, capped at 48 h as a runaway guard.
type Campaign struct {
	Cluster *cluster.Cluster
	Sched   SchedulerName
	Params  core.Params
	Jobs    []workload.JobSpec
	Config  mapreduce.Config
	Horizon time.Duration
}

// World is a reusable simulation world: a private clone of one cluster,
// the driver built over it by the first run and reset before each later
// one, and one scheduler per policy, reset before each run (an E-Ant kept
// warm retains its pooled colonies and scratch buffers). Every run is
// bit-identical to the same campaign on a new World. A World is not safe
// for concurrent use; RunAll keeps one per worker.
type World struct {
	source  *cluster.Cluster // the cluster every campaign must name
	cluster *cluster.Cluster // private clone the runs execute on
	driver  *mapreduce.Driver
	scheds  map[SchedulerName]mapreduce.Scheduler
}

// NewWorld builds a world over c. The cluster is cloned once; later
// mutations of c are not observed.
func NewWorld(c *cluster.Cluster) (*World, error) {
	if c == nil {
		return nil, fmt.Errorf("experiments: NewWorld with nil cluster")
	}
	return &World{
		source:  c,
		cluster: c.Clone(),
		scheds:  make(map[SchedulerName]mapreduce.Scheduler),
	}, nil
}

// Run executes one campaign, which must name the world's cluster, and
// returns its statistics. Scheduler and driver errors are returned as
// they are, so a caller's wrap is the only one.
func (w *World) Run(c Campaign) (*mapreduce.Stats, error) {
	if c.Cluster != w.source {
		return nil, fmt.Errorf("experiments: campaign cluster is not the world's")
	}
	s, err := w.scheduler(c)
	if err != nil {
		return nil, err
	}
	if w.driver == nil {
		if w.driver, err = mapreduce.NewDriver(w.cluster, s, c.Config); err != nil {
			return nil, err
		}
	} else if err := w.driver.Reset(s, c.Config); err != nil {
		return nil, err
	}
	horizon := c.Horizon
	if horizon <= 0 {
		horizon = 48 * time.Hour
	}
	return w.driver.Run(c.Jobs, horizon)
}

// scheduler returns the world's scheduler for the campaign's policy,
// building it on first use and otherwise resetting it to its pre-run
// state with the campaign's parameters.
func (w *World) scheduler(c Campaign) (mapreduce.Scheduler, error) {
	s, ok := w.scheds[c.Sched]
	if !ok {
		s, err := NewScheduler(c.Sched, c.Params)
		if err != nil {
			return nil, err
		}
		w.scheds[c.Sched] = s
		return s, nil
	}
	switch sc := s.(type) {
	case *core.EAnt:
		if err := sc.ResetForRun(c.Params); err != nil {
			return nil, err
		}
	case interface{ ResetForRun() }:
		sc.ResetForRun()
	default:
		return nil, fmt.Errorf("experiments: cannot reset scheduler %q for reuse", s.Name())
	}
	return s, nil
}

// RunAll runs the campaigns on at most workers goroutines (workers <= 0
// means parallel.DefaultWorkers(); 1 runs them in order on the calling
// goroutine) and returns their statistics in campaign order. Each worker
// keeps one World, which it replaces when a campaign names another
// cluster, and worlds outlive the call: a worker takes its world from
// those earlier calls left in worldPool when that world is over the
// campaign's cluster, and every worker's last world goes back when the
// call returns. Workers decide only when a campaign runs, never what it
// computes, so the statistics are bit-identical for every worker count
// and whether a world is new or pooled. On error RunAll returns the
// error of the lowest-index failing campaign, as World.Run gave it.
func RunAll(campaigns []Campaign, workers int) ([]*mapreduce.Stats, error) {
	worlds := make([]*World, parallel.Workers(len(campaigns), workers))
	stats, err := parallel.MapWorkers(len(campaigns), workers, func(worker, i int) (*mapreduce.Stats, error) {
		c := campaigns[i]
		w := worlds[worker]
		if w == nil || w.source != c.Cluster {
			var err error
			if w, err = pooledWorld(c.Cluster); err != nil {
				return nil, err
			}
			worlds[worker] = w
		}
		return w.Run(c)
	})
	// MapWorkers has returned, so no worker still runs on these worlds.
	for _, w := range worlds {
		if w != nil {
			worldPool.Put(w)
		}
	}
	return stats, err
}

// worldPool holds the worlds of finished RunAll calls. A world has one
// owner at a time: the pool, or the one worker that took it.
var worldPool sync.Pool

// pooledWorld returns a world over c: a pooled one if the pool hands out
// c's, else a new one. A pooled world over another cluster is dropped.
func pooledWorld(c *cluster.Cluster) (*World, error) {
	if w, ok := worldPool.Get().(*World); ok && w.source == c {
		return w, nil
	}
	return NewWorld(c)
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
