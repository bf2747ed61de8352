package experiments

import (
	"fmt"
	"time"

	"eant/internal/cluster"
	"eant/internal/core"
	"eant/internal/fault"
	"eant/internal/metrics"
	"eant/internal/probe"
	"eant/internal/tabwrite"
)

// FailureSweep measures scheduler resilience to machine churn, a study the
// paper leaves open (§VIII): the same MSD workload runs under increasing
// crash rates (decreasing per-machine MTBF) plus a small per-attempt
// failure probability, and each cell reports total energy, makespan, the
// fault tallies, and — via the interval-assignment stability detector —
// how long the assignment policy took to settle. Energy and makespan grow
// with the crash rate for every policy (killed attempts and re-executed
// map outputs are paid for twice); the question is how much of E-Ant's
// saving over the baselines survives the churn, given that every crash
// both shrinks the slot pool and invalidates learned trails.

// FailureSweepConfig parameterizes the sweep.
type FailureSweepConfig struct {
	// Jobs and Seed shape the MSD workload (shared across every cell).
	Jobs int
	Seed int64
	// MTBFs is the per-machine mean-time-between-failures axis; 0 disables
	// fault injection entirely for that point (the healthy baseline).
	MTBFs []time.Duration
	// MTTR is the mean repair time applied whenever faults are on.
	MTTR time.Duration
	// TaskFailProb is the per-attempt failure probability applied whenever
	// faults are on.
	TaskFailProb float64
	// Schedulers lists the policies to compare.
	Schedulers []SchedulerName
}

// DefaultFailureSweepConfig is the evaluation-scale sweep: a healthy
// point plus three churn levels, E-Ant against the strongest baselines.
func DefaultFailureSweepConfig() FailureSweepConfig {
	return FailureSweepConfig{
		Jobs:         24,
		Seed:         DefaultSeed,
		MTBFs:        []time.Duration{0, 40 * time.Minute, 20 * time.Minute, 10 * time.Minute},
		MTTR:         2 * time.Minute,
		TaskFailProb: 0.02,
		Schedulers:   []SchedulerName{SchedEAnt, SchedFair, SchedFIFO, SchedLATE},
	}
}

// FailurePoint is one (scheduler, MTBF) cell of the sweep.
type FailurePoint struct {
	Sched SchedulerName
	MTBF  time.Duration // 0 = faults disabled

	TotalJoules float64
	Makespan    time.Duration

	Crashes            int
	TaskFailures       int
	TasksKilledByCrash int
	MapOutputsLost     int
	JobsFailed         int

	// Convergence is the mean time for a job's per-interval assignment
	// distribution to stabilize (80 % overlap between consecutive
	// intervals); ConvergedJobs is how many jobs stabilized at all.
	Convergence   time.Duration
	ConvergedJobs int
}

// FailureSweepResult holds the sweep grid.
type FailureSweepResult struct {
	Cfg    FailureSweepConfig
	Points []FailurePoint
}

// FailureSweepRun executes the sweep.
func FailureSweepRun(cfg FailureSweepConfig) (*FailureSweepResult, error) {
	if len(cfg.MTBFs) == 0 || len(cfg.Schedulers) == 0 {
		return nil, fmt.Errorf("failure sweep: empty MTBF or scheduler axis")
	}
	jobs, err := msdJobs(cfg.Jobs, cfg.Seed)
	if err != nil {
		return nil, err
	}
	jobIDs := make([]int, len(jobs))
	for i := range jobs {
		jobIDs[i] = jobs[i].ID
	}
	// The jobs slice is shared read-only across cells: JobSpec is a pure
	// value and Driver.Run copies each spec.
	testbed := cluster.Testbed()
	res := &FailureSweepResult{Cfg: cfg}
	var campaigns []Campaign
	var events []*[]probe.Event
	for _, schedName := range cfg.Schedulers {
		for _, mtbf := range cfg.MTBFs {
			dcfg := defaultDriverConfig()
			dcfg.Seed = cfg.Seed
			if mtbf > 0 {
				dcfg.Fault = fault.Config{
					MachineMTBF:  mtbf,
					MachineMTTR:  cfg.MTTR,
					TaskFailProb: cfg.TaskFailProb,
				}
			}
			// The convergence detector reads the task starts and the
			// control ticks that close each interval.
			evs := new([]probe.Event)
			dcfg.Probe = probe.New(probe.Config{Sink: func(ev probe.Event) {
				if ev.Kind == probe.KindAssign || ev.Kind == probe.KindControlTick {
					*evs = append(*evs, ev)
				}
			}})
			events = append(events, evs)
			res.Points = append(res.Points, FailurePoint{Sched: schedName, MTBF: mtbf})
			campaigns = append(campaigns, Campaign{
				Cluster: testbed, Sched: schedName, Params: core.DefaultParams(), Jobs: jobs, Config: dcfg,
			})
		}
	}
	cells, err := RunAll(campaigns, 0)
	if err != nil {
		return nil, fmt.Errorf("failure sweep: %w", err)
	}
	for i, stats := range cells {
		p := &res.Points[i]
		p.TotalJoules = stats.TotalJoules
		p.Makespan = stats.Horizon
		p.Crashes = stats.Crashes
		p.TaskFailures = stats.TaskFailures
		p.TasksKilledByCrash = stats.TasksKilledByCrash
		p.MapOutputsLost = stats.MapOutputsLost
		p.JobsFailed = stats.JobsFailed
		p.Convergence, p.ConvergedJobs = metrics.MeanConvergenceTime(*events[i], jobIDs, 0.8)
	}
	return res, nil
}

// Table renders the sweep grid.
func (r *FailureSweepResult) Table() *tabwrite.Table {
	t := tabwrite.New(
		fmt.Sprintf("Failure sweep — %d MSD jobs, seed %d, MTTR %v, p_fail %.2f",
			r.Cfg.Jobs, r.Cfg.Seed, r.Cfg.MTTR, r.Cfg.TaskFailProb),
		"scheduler", "MTBF", "total KJ", "makespan", "crashes",
		"task fails", "killed by crash", "map out lost", "jobs failed", "convergence")
	for _, p := range r.Points {
		mtbf := "off"
		if p.MTBF > 0 {
			mtbf = p.MTBF.String()
		}
		conv := "-"
		if p.ConvergedJobs > 0 {
			conv = p.Convergence.Round(time.Second).String()
		}
		t.AddRow(string(p.Sched), mtbf,
			tabwrite.Cell(p.TotalJoules/1000, 0),
			p.Makespan.Round(time.Second).String(),
			p.Crashes, p.TaskFailures, p.TasksKilledByCrash,
			p.MapOutputsLost, p.JobsFailed, conv)
	}
	return t
}
