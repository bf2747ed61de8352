package main

import (
	"fmt"
	"runtime"
	"time"

	"eant"
	"eant/internal/cluster"
)

// workload is one family of benchmark inputs. All four are closed loop with
// one client: the next unit starts when the previous one returns, the way a
// researcher's sweep waits on its results.
//
// A run draws a pool of units from its seed and cycles through the whole
// pool, so its medians average over many job mixes: a single MSD job mix
// varies by ±10–25 % in cost from seed to seed, which would swamp every
// bound if a run timed one mix only.
type workload struct {
	name string
	why  string
	// units is the pool size: the distinct units one cycle runs.
	units int
	// fleet builds the workload's cluster.
	fleet func() (*eant.Cluster, error)
	// unit returns the specs of the pool's i-th unit for the given seed.
	unit func(c *eant.Cluster, seed int64, i int) []eant.RunSpec
	// sweep units go through eant.RunMany on the worker pool; the others
	// are one warm eant.Runner.Run each.
	sweep bool
}

// inputSeed derives the seed of the pool's i-th job mix. Input 0 is the
// run's own seed.
func inputSeed(seed int64, i int) int64 { return seed + 1000*int64(i) }

// paperSweepPolicies are the Fig 8 schedulers, in the order each job mix
// runs them.
var paperSweepPolicies = []eant.Scheduler{eant.SchedulerFIFO, eant.SchedulerFair, eant.SchedulerTarazu, eant.SchedulerEAnt}

var workloads = []*workload{
	{
		name:  "paper-sweep",
		why:   "the Fig 8 grid users run to reproduce the paper: 16 machines, many tasks per machine; per-task driver work, warm reset and the worker pool dominate",
		units: 48,
		fleet: func() (*eant.Cluster, error) { return eant.PaperTestbed(), nil },
		unit: func(c *eant.Cluster, seed int64, i int) []eant.RunSpec {
			var specs []eant.RunSpec
			for k := 0; k < 3; k++ {
				s := inputSeed(seed, 3*i+k)
				jobs := eant.MSDWorkload(87, s)
				for _, p := range paperSweepPolicies {
					specs = append(specs, eant.RunSpec{Cluster: c, Scheduler: p, Jobs: jobs, Seed: s})
				}
			}
			return specs
		},
		sweep: true,
	},
	{
		name:  "wide-eant",
		why:   "E-Ant on 1024 machines: millions of heartbeat offers, 99 % declined, and the pheromone control tick at scale",
		units: 64,
		fleet: func() (*eant.Cluster, error) { return paperMix(64) },
		unit:  wideUnit(eant.SchedulerEAnt),
	},
	{
		name:  "wide-fair",
		why:   "same fleet, jobs and offer count as wide-eant under Fair, with no pheromone state: an E-Ant-only change must leave it flat",
		units: 64,
		fleet: func() (*eant.Cluster, error) { return paperMix(64) },
		unit:  wideUnit(eant.SchedulerFair),
	},
	{
		name:  "churn",
		why:   "256 machines with crashes, attempt failures, blacklisting and consolidation: the driver's write paths beside the offer path",
		units: 128,
		fleet: func() (*eant.Cluster, error) { return paperMix(16) },
		unit: func(c *eant.Cluster, seed int64, i int) []eant.RunSpec {
			s := inputSeed(seed, i)
			return []eant.RunSpec{{
				Cluster:   c,
				Scheduler: eant.SchedulerEAnt,
				Jobs:      eant.MSDWorkload(60, s),
				Seed:      s,
				Faults: &eant.FaultConfig{
					MachineMTBF:        2 * time.Hour,
					MachineMTTR:        2 * time.Minute,
					TaskFailProb:       0.02,
					BlacklistThreshold: 3,
				},
				Consolidation: &eant.Consolidation{},
			}}
		},
	},
}

// wideUnit is one 80-job MSD mix on the 1024-machine fleet under policy p.
func wideUnit(p eant.Scheduler) func(*eant.Cluster, int64, int) []eant.RunSpec {
	return func(c *eant.Cluster, seed int64, i int) []eant.RunSpec {
		s := inputSeed(seed, i)
		return []eant.RunSpec{{Cluster: c, Scheduler: p, Jobs: eant.MSDWorkload(80, s), Seed: s}}
	}
}

// paperMix is the paper's §V-B fleet (8:3:2:1:1:1 Desktop, T110, T420,
// T320, T620, Atom) with every group multiplied by factor.
func paperMix(factor int) (*eant.Cluster, error) {
	return eant.NewCluster(
		eant.ClusterGroup{Spec: cluster.SpecDesktop, Count: 8 * factor},
		eant.ClusterGroup{Spec: cluster.SpecT110, Count: 3 * factor},
		eant.ClusterGroup{Spec: cluster.SpecT420, Count: 2 * factor},
		eant.ClusterGroup{Spec: cluster.SpecT320, Count: factor},
		eant.ClusterGroup{Spec: cluster.SpecT620, Count: factor},
		eant.ClusterGroup{Spec: cluster.SpecAtom, Count: factor},
	)
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// workerCount is how many goroutines may run simulations at once.
func workerCount() int { return min(2, runtime.NumCPU()) }

// world is a set-up workload: its fleet, the pool of units drawn from the
// seed, and the warm executor the timed loops drive.
type world struct {
	fleet   *eant.Cluster
	units   [][]eant.RunSpec
	runner  *eant.Runner // nil for sweep workloads
	workers int          // RunMany workers; 1 for runner workloads
	one     [1]*eant.Result
}

// setupTimes splits one cold set-up into its steps.
type setupTimes struct {
	fleet, jobs, runner, prime time.Duration
}

func (t setupTimes) total() time.Duration { return t.fleet + t.jobs + t.runner + t.prime }

// scaled converts the times to reference speed (see refClock.factor).
func (t setupTimes) scaled(s float64) setupTimes {
	f := func(d time.Duration) time.Duration { return time.Duration(float64(d) * s) }
	return setupTimes{f(t.fleet), f(t.jobs), f(t.runner), f(t.prime)}
}

// setUp builds the fleet, generates the first n units of the pool, makes
// the executor and runs the pool's unit prime (mod n) once, timing each
// step. Successive set-ups prime different units, so that the median
// set-up time does not hang on one job mix.
func setUp(w *workload, seed int64, n, prime int) (*world, setupTimes, error) {
	var t setupTimes
	start := time.Now()
	fleet, err := w.fleet()
	if err != nil {
		return nil, t, fmt.Errorf("building fleet: %w", err)
	}
	t.fleet = time.Since(start)

	start = time.Now()
	wd := &world{fleet: fleet, units: make([][]eant.RunSpec, n), workers: 1}
	for i := range wd.units {
		wd.units[i] = w.unit(fleet, seed, i)
	}
	t.jobs = time.Since(start)

	// A sweep's runners live inside RunMany, so its runner step only
	// settles the worker count and its world construction lands in prime.
	start = time.Now()
	if w.sweep {
		wd.workers = workerCount()
	} else if wd.runner, err = eant.NewRunner(fleet); err != nil {
		return nil, t, err
	}
	t.runner = time.Since(start)

	start = time.Now()
	if _, err := wd.run(wd.units[prime%n]); err != nil {
		return nil, t, fmt.Errorf("priming unit %d: %w", prime%n, err)
	}
	t.prime = time.Since(start)
	return wd, t, nil
}

// run executes one unit. The returned slice is reused by the next call.
func (wd *world) run(specs []eant.RunSpec) ([]*eant.Result, error) {
	if wd.runner == nil {
		return eant.RunMany(specs, wd.workers)
	}
	r, err := wd.runner.Run(specs[0])
	wd.one[0] = r
	return wd.one[:], err
}
