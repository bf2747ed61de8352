// Package eant is a simulation library for studying energy-aware task
// assignment in heterogeneous Hadoop clusters. It reproduces E-Ant, the
// ant-colony-optimization scheduler of Cheng et al., "Towards Energy
// Efficiency in Heterogeneous Hadoop Clusters by Adaptive Task
// Assignment" (IEEE ICDCS 2015), together with the substrate the paper
// runs on: a discrete-event Hadoop 1.x cluster simulator with
// heterogeneous machine power envelopes, HDFS block placement, PUMA
// workload profiles, and the Fair, Tarazu, LATE, Capacity and FIFO
// baseline schedulers. Server consolidation (the paper's stated future
// work) is available through RunSpec.Consolidation.
//
// # Quick start
//
//	cluster := eant.PaperTestbed()
//	jobs := eant.MSDWorkload(87, 1)
//	result, err := eant.Run(eant.RunSpec{
//		Cluster:   cluster,
//		Scheduler: eant.SchedulerEAnt,
//		Jobs:      jobs,
//	})
//	fmt.Printf("total energy: %.1f MJ over %v\n",
//		result.TotalJoules/1e6, result.Makespan)
//
// The library is deterministic: identical RunSpecs (including Seed)
// produce identical results. All simulated quantities — task durations,
// CPU utilization, energy — derive from the calibrated machine catalog
// in internal/cluster and the workload profiles in internal/workload;
// DESIGN.md documents the calibration against the paper's published
// behaviour, and EXPERIMENTS.md records the reproduction of every table
// and figure.
package eant

import (
	"fmt"
	"io"
	"time"

	"eant/internal/cluster"
	"eant/internal/core"
	"eant/internal/experiments"
	"eant/internal/fault"
	"eant/internal/mapreduce"
	"eant/internal/noise"
	"eant/internal/probe"
	"eant/internal/sim"
	"eant/internal/workload"
)

// Scheduler selects the task-assignment policy of a run.
type Scheduler string

// Available schedulers.
const (
	// SchedulerEAnt is the paper's contribution: ACO-based adaptive,
	// energy-aware task assignment.
	SchedulerEAnt Scheduler = "E-Ant"
	// SchedulerFair is the Hadoop Fair Scheduler (heterogeneity-
	// oblivious baseline).
	SchedulerFair Scheduler = "Fair"
	// SchedulerTarazu is the communication-aware load balancer of Ahmad
	// et al. (performance-aware, energy-oblivious baseline).
	SchedulerTarazu Scheduler = "Tarazu"
	// SchedulerFIFO is default Hadoop (job-arrival order).
	SchedulerFIFO Scheduler = "FIFO"
	// SchedulerLATE adds speculative re-execution of stragglers to Fair
	// assignment (Zaharia et al., OSDI'08).
	SchedulerLATE Scheduler = "LATE"
	// SchedulerCapacity is the Hadoop Capacity Scheduler with a single
	// default queue (FIFO within the queue).
	SchedulerCapacity Scheduler = "Capacity"
)

// Schedulers lists every available policy.
func Schedulers() []Scheduler {
	return []Scheduler{SchedulerEAnt, SchedulerFair, SchedulerTarazu, SchedulerLATE, SchedulerCapacity, SchedulerFIFO}
}

// App identifies a PUMA benchmark application.
type App = workload.App

// The PUMA applications of the paper's evaluation.
const (
	Wordcount = workload.Wordcount
	Grep      = workload.Grep
	Terasort  = workload.Terasort
)

// Job describes one MapReduce job to submit.
type Job = workload.JobSpec

// NewJob builds a job: app over inputMB of data (one map task per 64 MB
// block), numReduces reduce tasks, submitted at the given virtual time.
func NewJob(id int, app App, inputMB float64, numReduces int, submit time.Duration) Job {
	return workload.NewJobSpec(id, app, inputMB, numReduces, submit)
}

// MSDWorkload generates the paper's §V-C Microsoft-derived synthetic
// workload: jobs drawn from Table III's size classes (scaled 1/64 so runs
// finish in seconds), applications rotating over Wordcount, Grep and
// Terasort, Poisson arrivals. Deterministic per seed. jobs must be at
// least 1: MSDWorkload panics on a smaller count.
func MSDWorkload(jobs int, seed int64) []Job {
	specs, err := workload.GenerateMSD(workload.MSDConfig{
		Jobs:             jobs,
		Scale:            64,
		MeanInterarrival: 45 * time.Second,
	}, sim.NewRNG(seed))
	if err != nil {
		panic(err) // only reachable with non-positive jobs
	}
	return specs
}

// Cluster is a heterogeneous machine fleet.
type Cluster = cluster.Cluster

// MachineSpec describes one hardware type.
type MachineSpec = cluster.TypeSpec

// PaperTestbed returns the paper's 16-node §V-B fleet: 8 Dell desktops,
// 3 T110, 2 T420, 1 T320, 1 T620, 1 Atom.
func PaperTestbed() *Cluster { return cluster.Testbed() }

// NewCluster builds a fleet from (spec, count) groups.
func NewCluster(groups ...ClusterGroup) (*Cluster, error) {
	gs := make([]cluster.Group, len(groups))
	for i, g := range groups {
		gs[i] = cluster.Group{Spec: g.Spec, Count: g.Count}
	}
	return cluster.New(gs...)
}

// ClusterGroup pairs a machine spec with a replica count.
type ClusterGroup struct {
	Spec  *MachineSpec
	Count int
}

// MachineSpecs returns the calibrated catalog of the paper's machine
// types (Desktop, XeonE5, T420, T110, T320, T620, Atom).
func MachineSpecs() []*MachineSpec { return cluster.AllSpecs() }

// EAntParams are E-Ant's tuning knobs; see DefaultEAntParams.
type EAntParams = core.Params

// DefaultEAntParams returns the paper's configuration (ρ = 0.5, β = 0.1,
// both exchange strategies on).
func DefaultEAntParams() EAntParams { return core.DefaultParams() }

// NoiseConfig controls system-noise injection (stragglers, duration
// jitter, CPU-measurement fluctuation).
type NoiseConfig = noise.Config

// DefaultNoise returns the evaluation noise calibration; NoNoise disables
// all noise.
func DefaultNoise() NoiseConfig { return noise.Default() }

// NoNoise returns the noise-free configuration.
func NoNoise() NoiseConfig { return noise.Off() }

// FaultConfig configures machine-crash and task-attempt-failure
// injection (MTBF/MTTR phases, scripted scenarios, retry budgets,
// blacklisting). The zero value disables every failure source.
type FaultConfig = fault.Config

// FaultEvent is one scripted crash or recovery in FaultConfig.Scenario.
type FaultEvent = fault.Event

// Scripted fault event kinds.
const (
	FaultCrash   = fault.Crash
	FaultRecover = fault.Recover
)

// Probe is a live observability recorder attached to a run: structured
// decision events (offer → draw → assignment), pheromone snapshots,
// machine time series, and fixed-boundary histograms, all on the
// simulated clock. Probes are pure observers — an instrumented run
// produces bit-identical Stats to an uninstrumented one.
type Probe = probe.Probe

// ProbeConfig parameterizes a Probe; see NewProbe.
type ProbeConfig = probe.Config

// ProbeEvent is one recorded observation.
type ProbeEvent = probe.Event

// ProbeReport aggregates a probe's histograms; reports from a sweep merge
// with MergeProbeReports.
type ProbeReport = probe.Report

// ProbeHistogram is a fixed-boundary histogram with deterministic
// quantiles.
type ProbeHistogram = probe.Histogram

// NewProbe builds an observability probe. Attach it via RunSpec.Probe; a
// probe serves exactly one run (build a fresh one per RunSpec in sweeps).
func NewProbe(cfg ProbeConfig) (*Probe, error) { return probe.New(cfg) }

// MergeProbeReports folds per-run probe reports into one aggregate, in
// argument (submission) order — the order RunMany returns results — so
// sweep aggregation is reproducible regardless of worker interleaving.
func MergeProbeReports(reports ...ProbeReport) (ProbeReport, error) {
	return probe.MergeReports(reports...)
}

// WriteTimeline renders probe events as a Chrome trace-event JSON document
// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing.
func WriteTimeline(w io.Writer, events []ProbeEvent) error {
	return probe.WriteTimeline(w, events)
}

// RunSpec configures one simulated campaign.
type RunSpec struct {
	// Cluster to run on; required.
	Cluster *Cluster
	// Scheduler; required.
	Scheduler Scheduler
	// EAntParams tunes E-Ant; zero value means DefaultEAntParams.
	// Ignored by the baselines.
	EAntParams *EAntParams
	// Jobs to run; required.
	Jobs []Job
	// Seed drives every random stream (default 0 — still deterministic).
	Seed int64
	// Noise injects system noise; nil means DefaultNoise.
	Noise *NoiseConfig
	// ControlInterval is E-Ant's policy-refresh period. Zero means 30 s,
	// matching the 1/64-scaled workloads (the paper's unscaled interval
	// is 5 min).
	ControlInterval time.Duration
	// Horizon optionally caps the virtual duration; zero means run to
	// completion (capped at 48 h as a runaway guard).
	Horizon time.Duration
	// KeepTaskRecords retains a per-task record in the result.
	KeepTaskRecords bool
	// Consolidation, when non-nil, enables server power management: idle
	// machines outside a covering subset sleep and wake on demand (the
	// paper's §VIII future work). Zero-value fields take defaults.
	Consolidation *Consolidation
	// Faults, when non-nil, injects machine crashes and task-attempt
	// failures; the driver retries, re-executes lost map outputs, and
	// blacklists per FaultConfig. Nil (or the zero value) is a strict
	// no-op.
	Faults *FaultConfig
	// Probe, when non-nil, records live observability events for this
	// run. The probe must be freshly built (NewProbe) and not shared
	// across runs. Nil disables instrumentation at zero cost.
	Probe *Probe
}

// Consolidation configures server power management; see
// mapreduce.PowerMgmt for field semantics.
type Consolidation = mapreduce.PowerMgmt

// Result is the outcome of a Run. Stats exposes the full per-run
// statistics (task tallies, per-job results, per-machine energy).
type Result struct {
	// TotalJoules is fleet-wide metered energy over the campaign.
	TotalJoules float64
	// Makespan is the virtual time from first submission to last task.
	Makespan time.Duration
	// JobsCompleted counts finished jobs.
	JobsCompleted int
	// TypeJoules and TypeUtilization group energy and mean CPU
	// utilization by machine type.
	TypeJoules      map[string]float64
	TypeUtilization map[string]float64
	// Stats is the full statistics record.
	Stats *mapreduce.Stats
}

// specCampaign checks a spec and translates it into the campaign it
// runs.
func specCampaign(spec RunSpec) (experiments.Campaign, error) {
	if spec.Cluster == nil {
		return experiments.Campaign{}, fmt.Errorf("eant: RunSpec.Cluster is required")
	}
	if len(spec.Jobs) == 0 {
		return experiments.Campaign{}, fmt.Errorf("eant: RunSpec.Jobs is empty")
	}
	params := core.DefaultParams()
	if spec.EAntParams != nil {
		params = *spec.EAntParams
	}
	return experiments.Campaign{
		Cluster: spec.Cluster,
		Sched:   experiments.SchedulerName(spec.Scheduler),
		Params:  params,
		Jobs:    spec.Jobs,
		Config:  specConfig(spec),
		Horizon: spec.Horizon,
	}, nil
}

// specConfig translates a RunSpec into the driver configuration.
func specConfig(spec RunSpec) mapreduce.Config {
	cfg := mapreduce.DefaultConfig()
	cfg.Seed = spec.Seed
	cfg.KeepTaskRecords = spec.KeepTaskRecords
	if spec.Consolidation != nil {
		cfg.Power = *spec.Consolidation
		cfg.Power.Enabled = true
	}
	if spec.ControlInterval > 0 {
		cfg.ControlInterval = spec.ControlInterval
	} else {
		cfg.ControlInterval = 30 * time.Second
	}
	if spec.Noise != nil {
		cfg.Noise = *spec.Noise
	} else {
		cfg.Noise = noise.Default()
	}
	if spec.Faults != nil {
		cfg.Fault = *spec.Faults
	}
	cfg.Probe = spec.Probe
	return cfg
}

// resultFromStats wraps a run's statistics as the public Result.
func resultFromStats(stats *mapreduce.Stats) *Result {
	return &Result{
		TotalJoules:     stats.TotalJoules,
		Makespan:        stats.Horizon,
		JobsCompleted:   len(stats.Jobs),
		TypeJoules:      stats.TypeJoules,
		TypeUtilization: stats.TypeAvgUtil,
		Stats:           stats,
	}
}

// Run executes the campaign described by spec through RunMany, so it
// runs on a world an earlier call over the same cluster left behind when
// one is pooled, and on a new one otherwise; the result is the same
// either way.
func Run(spec RunSpec) (*Result, error) {
	results, err := RunMany([]RunSpec{spec}, 1)
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

// Runner is a reusable simulation world: it owns a private clone of one
// cluster plus the driver built over it, and runs campaign after campaign
// by resetting that world in place instead of rebuilding it. For sweeps
// of many runs over one fleet this removes the per-run construction of
// the cluster, HDFS namespace, event queue, job/task structures and
// scheduler state — the dominant allocation cost of short runs. Job and
// task storage is kept whatever the next run's jobs are: each run is laid
// out in the storage the largest earlier one left.
//
// Every warm run is bit-identical to a cold Run of the same spec
// (golden-enforced): each reset rewinds the RNG streams to the seeds a
// fresh driver would fork and returns every piece of retained state to
// its freshly-constructed value. A Runner is not safe for concurrent use;
// RunMany keeps one world per worker.
type Runner struct {
	source *Cluster // the caller's cluster, identity-checked in Run
	world  *experiments.World
}

// NewRunner builds a reusable world over c. The cluster is cloned once;
// later mutations of c are not observed.
func NewRunner(c *Cluster) (*Runner, error) {
	if c == nil {
		return nil, fmt.Errorf("eant: NewRunner with nil cluster")
	}
	w, err := experiments.NewWorld(c)
	if err != nil {
		return nil, fmt.Errorf("eant: %w", err)
	}
	return &Runner{source: c, world: w}, nil
}

// Run executes one campaign on the warm world. spec.Cluster must be nil
// or the cluster the Runner was built from; everything else in the spec
// may change freely between runs (scheduler, jobs, seed, noise, faults,
// consolidation, probe).
func (r *Runner) Run(spec RunSpec) (*Result, error) {
	if spec.Cluster == nil {
		spec.Cluster = r.source
	} else if spec.Cluster != r.source {
		return nil, fmt.Errorf("eant: Runner.Run with a different cluster than NewRunner")
	}
	c, err := specCampaign(spec)
	if err != nil {
		return nil, err
	}
	stats, err := r.world.Run(c)
	if err != nil {
		return nil, fmt.Errorf("eant: %w", err)
	}
	return resultFromStats(stats), nil
}

// RunMany executes independent campaigns concurrently on a bounded worker
// pool and returns their results in spec order. workers <= 0 uses the
// process default (GOMAXPROCS, or the eantsim -parallel setting);
// workers == 1 runs sequentially. Each result is bit-identical to what a
// sequential Run of the same spec produces, and result ordering never
// depends on completion timing. On error, RunMany reports the error of
// the lowest-index failing spec.
//
// The specs run through experiments.RunAll, which keeps one warm world
// per worker and rebuilds it only when a spec names another cluster.
// Worlds outlive the call: each worker's last world is pooled when the
// call returns, and a later call over the same cluster takes it up again
// (until a garbage collection empties the pool), so a sweep of many
// RunMany calls over one fleet pays the world-construction cost about
// once per worker, not once per call. A worker that runs the same mix
// with the same seed, replica count and placement constraints as its
// previous run (one mix under several policies) restores that run's HDFS
// placement instead of drawing it again. Clusters are always cloned into
// the worlds, so concurrent runs never share machine state and the
// caller's clusters are never mutated.
func RunMany(specs []RunSpec, workers int) ([]*Result, error) {
	// Only the specs before the first invalid one run, so a lower spec
	// that fails at run time is still the one reported.
	campaigns := make([]experiments.Campaign, 0, len(specs))
	var invalid error
	for _, spec := range specs {
		c, err := specCampaign(spec)
		if err != nil {
			invalid = err
			break
		}
		campaigns = append(campaigns, c)
	}
	stats, err := experiments.RunAll(campaigns, workers)
	if err != nil {
		return nil, fmt.Errorf("eant: %w", err)
	}
	if invalid != nil {
		return nil, invalid
	}
	results := make([]*Result, len(stats))
	for i, s := range stats {
		results[i] = resultFromStats(s)
	}
	return results, nil
}

// Compare runs the same jobs under several schedulers (concurrently, on
// the RunMany worker pool, so cluster and world construction is shared
// across the schedulers each worker runs and across Compare calls over
// one cluster, and a worker's second and later schedulers restore the
// HDFS placement its first drew) and returns the results keyed by
// scheduler, plus E-Ant's saving in percent over each baseline
// (positive = E-Ant used less energy).
func Compare(spec RunSpec, schedulers ...Scheduler) (map[Scheduler]*Result, map[Scheduler]float64, error) {
	if len(schedulers) == 0 {
		schedulers = Schedulers()
	}
	specs := make([]RunSpec, len(schedulers))
	for i, s := range schedulers {
		specs[i] = spec
		specs[i].Scheduler = s
	}
	runs, err := RunMany(specs, 0)
	if err != nil {
		return nil, nil, err
	}
	results := make(map[Scheduler]*Result, len(schedulers))
	for i, s := range schedulers {
		results[s] = runs[i]
	}
	savings := make(map[Scheduler]float64)
	if eantRes, ok := results[SchedulerEAnt]; ok {
		for s, r := range results {
			if s == SchedulerEAnt || r.TotalJoules <= 0 {
				continue
			}
			savings[s] = 100 * (r.TotalJoules - eantRes.TotalJoules) / r.TotalJoules
		}
	}
	return results, savings, nil
}
