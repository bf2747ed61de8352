package mapreduce

import (
	"sort"
	"time"

	"eant/internal/workload"
)

// TaskRecord is the completion record of one task, the simulator's
// equivalent of a Hadoop TaskReport tagged with energy data.
type TaskRecord struct {
	JobID       int
	App         workload.App
	Class       workload.SizeClass
	Kind        TaskKind
	MachineID   int
	MachineType string
	Start       time.Duration
	Finish      time.Duration
	EstJoules   float64
	TrueJoules  float64
	Local       bool
}

// JobResult captures one finished job's phase timeline. Failed marks a
// job terminated because a task exhausted its retry budget (fault
// injection); its timeline fields stop at the failure instant.
type JobResult struct {
	Spec           workload.JobSpec
	Submitted      time.Duration
	FirstStart     time.Duration
	MapsDoneAt     time.Duration
	LastShuffleEnd time.Duration
	Finished       time.Duration
	Failed         bool
}

// CompletionTime returns submission-to-finish latency.
func (r JobResult) CompletionTime() time.Duration { return r.Finished - r.Submitted }

// MapSeconds returns the map-phase span of the job.
func (r JobResult) MapSeconds() float64 { return (r.MapsDoneAt - r.FirstStart).Seconds() }

// ShuffleSeconds returns the post-barrier shuffle span.
func (r JobResult) ShuffleSeconds() float64 {
	if r.LastShuffleEnd < r.MapsDoneAt {
		return 0
	}
	return (r.LastShuffleEnd - r.MapsDoneAt).Seconds()
}

// ReduceSeconds returns the reduce-compute span.
func (r JobResult) ReduceSeconds() float64 {
	end := r.LastShuffleEnd
	if end < r.MapsDoneAt {
		end = r.MapsDoneAt
	}
	if r.Finished < end {
		return 0
	}
	return (r.Finished - end).Seconds()
}

// AppKindKey groups completed-task tallies per machine type.
type AppKindKey struct {
	MachineType string
	App         workload.App
	Kind        TaskKind
}

// EnergyPair accumulates estimated vs true task energy for accuracy
// reporting (Fig. 4).
type EnergyPair struct {
	EstJoules  float64
	TrueJoules float64
	Tasks      int
}

// Stats aggregates everything the evaluation section reads out of a run.
// Aggregates are always maintained; full per-task records only when
// Config.KeepTaskRecords is set (they dominate memory on large workloads).
type Stats struct {
	Scheduler string
	Horizon   time.Duration

	Jobs  []JobResult
	Tasks []TaskRecord

	// Completed tallies completed tasks grouped by (machine type, app,
	// kind) — Figs. 9a/9b.
	Completed map[AppKindKey]int
	// CompletedByMachine counts completed tasks per machine ID.
	CompletedByMachine map[int]int
	// Energy accumulates est/true task energy per (machine type, app,
	// kind) — Fig. 4.
	Energy map[AppKindKey]EnergyPair

	// LocalMaps / TotalMaps track the data-locality hit rate.
	LocalMaps int
	TotalMaps int

	// MapOffers / ReduceOffers count the slot offers made, one per free
	// slot offered to the scheduler on a heartbeat; dead and blacklisted
	// machines get none, asleep ones do. Most are AssignMap /
	// AssignReduce calls; once both queues are empty, a QuietWhenIdle
	// policy's remaining offers of the heartbeat are counted without a
	// call, each one the nil answer the call would give, under fault
	// injection and consolidation too (only a probe forces the calls).
	// The scale benchmarks divide by their sum to report ns/offer.
	MapOffers    int
	ReduceOffers int

	// Speculation bookkeeping: clones launched, races won by the clone,
	// and attempts killed as race losers (original or clone).
	SpeculativeStarted int
	SpeculativeWon     int
	SpeculativeKilled  int

	// Consolidation bookkeeping: power-down and wake transitions.
	Sleeps int
	Wakes  int

	// Fault-injection bookkeeping. Crashes/Recoveries count machine
	// transitions; TaskFailures counts attempt failures (JVM death
	// mid-task); TasksKilledByCrash counts in-flight attempts lost to a
	// machine crash; MapOutputsLost counts completed maps re-executed
	// because their output machine died before the job's reduces fetched
	// it (Hadoop 1.x semantics); Blacklists counts machines benched after
	// repeated failures; JobsFailed counts jobs that exhausted a task's
	// retry budget.
	Crashes            int
	Recoveries         int
	TaskFailures       int
	TasksKilledByCrash int
	MapOutputsLost     int
	Blacklists         int
	JobsFailed         int

	// MachineJoules and MachineAvgUtil are filled from the power meter at
	// the end of the run.
	MachineJoules  []float64
	MachineAvgUtil []float64
	// TypeJoules and TypeAvgUtil group the same by machine type
	// (Figs. 8a/8b).
	TypeJoules  map[string]float64
	TypeAvgUtil map[string]float64
	// TotalJoules is fleet-wide energy over [0, Horizon].
	TotalJoules float64
}

func newStats(schedName string) *Stats {
	return &Stats{
		Scheduler:          schedName,
		Completed:          make(map[AppKindKey]int),
		CompletedByMachine: make(map[int]int),
		Energy:             make(map[AppKindKey]EnergyPair),
	}
}

// TasksDone returns the total number of completed tasks.
func (s *Stats) TasksDone() int {
	n := 0
	for _, c := range s.CompletedByMachine {
		n += c
	}
	return n
}

// CompletedByTypeApp returns completed-task counts per machine type for
// one app (both kinds), Fig. 9a's view.
func (s *Stats) CompletedByTypeApp(machineType string, app workload.App) int {
	n := 0
	for k, c := range s.Completed {
		if k.MachineType == machineType && k.App == app {
			n += c
		}
	}
	return n
}

// CompletedByTypeKind returns completed-task counts per machine type for
// one kind (all apps), Fig. 9b's view.
func (s *Stats) CompletedByTypeKind(machineType string, kind TaskKind) int {
	n := 0
	for k, c := range s.Completed {
		if k.MachineType == machineType && k.Kind == kind {
			n += c
		}
	}
	return n
}

// EnergyByApp sums est/true energy over machine types for one app. The
// keys are sorted before summing: float addition is not associative, so
// accumulating in map-hash order would perturb the low bits from run to
// run (exactly the class of nondeterminism eantlint's floatsum rule
// exists to catch).
func (s *Stats) EnergyByApp(app workload.App) EnergyPair {
	keys := make([]AppKindKey, 0, len(s.Energy))
	for k := range s.Energy {
		if k.App == app {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.MachineType != b.MachineType {
			return a.MachineType < b.MachineType
		}
		return a.Kind < b.Kind
	})
	var out EnergyPair
	for _, k := range keys {
		p := s.Energy[k]
		out.EstJoules += p.EstJoules
		out.TrueJoules += p.TrueJoules
		out.Tasks += p.Tasks
	}
	return out
}

// LocalityFraction returns the fraction of map tasks that read local data.
func (s *Stats) LocalityFraction() float64 {
	if s.TotalMaps == 0 {
		return 0
	}
	return float64(s.LocalMaps) / float64(s.TotalMaps)
}

// JobByID returns the result for the given job ID, or nil.
func (s *Stats) JobByID(id int) *JobResult {
	for i := range s.Jobs {
		if s.Jobs[i].Spec.ID == id {
			return &s.Jobs[i]
		}
	}
	return nil
}
