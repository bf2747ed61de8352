package sched

import (
	"eant/internal/cluster"
	"eant/internal/mapreduce"
)

// Tarazu approximates the communication-aware load balancer of Ahmad et
// al. [ASPLOS'12] at the level the paper compares against: it balances map
// work against each machine's *compute capability* (cores × per-core
// speed) instead of slot counts, and it suppresses the bursty remote-map
// traffic that hurts heterogeneous clusters by letting slow machines take
// only data-local work once they are at their capability share.
//
// The result is performance-aware but energy-oblivious task assignment:
// Tarazu reduces job completion time on heterogeneous fleets (Fig. 8c) and
// incidentally saves some energy versus Fair (shorter runs), but it never
// consults the power characteristics of the machines (Fig. 8a).
type Tarazu struct {
	// capShare[machineID] is the machine's fraction of fleet compute
	// capability, computed lazily on first assignment.
	capShare []float64
	// started[machineID] counts map tasks this scheduler has placed.
	started      []int
	totalStarted int

	// slack is the tolerated overshoot above the capability share before
	// remote tasks are declined. 1.0 is strict proportionality.
	slack float64
	// localBoost multiplies a job's affinity score when it has a
	// data-local task on the offering machine.
	localBoost float64
}

// NewTarazu returns a Tarazu scheduler with the default 50 % slack.
func NewTarazu() *Tarazu { return &Tarazu{slack: 1.5, localBoost: 2.0} }

var (
	_ mapreduce.Scheduler     = (*Tarazu)(nil)
	_ mapreduce.QuietWhenIdle = (*Tarazu)(nil)
)

// Name implements mapreduce.Scheduler.
func (t *Tarazu) Name() string { return "Tarazu" }

// QuietWhenIdle implements mapreduce.QuietWhenIdle: both Assign methods
// return nil on an empty queue. The lazy init before that check reads only
// the static fleet, so running it at a later offer changes nothing.
func (t *Tarazu) QuietWhenIdle() {}

// ResetForRun zeroes the per-run balancing counters. The capability shares
// are a pure function of the cluster (which a warm rerun keeps) and stay.
func (t *Tarazu) ResetForRun() {
	for i := range t.started {
		t.started[i] = 0
	}
	t.totalStarted = 0
}

// init builds the per-machine capability shares once per run.
func (t *Tarazu) init(ctx *mapreduce.Context) {
	if t.capShare != nil {
		return
	}
	machines := ctx.Cluster.Machines()
	t.capShare = make([]float64, len(machines))
	t.started = make([]int, len(machines))
	var total float64
	for _, m := range machines {
		total += capability(m.Spec())
	}
	for i, m := range machines {
		t.capShare[i] = capability(m.Spec()) / total
	}
}

// capability scores a machine's map-compute throughput.
func capability(s *cluster.TypeSpec) float64 {
	return float64(s.Cores) * s.SpeedFactor
}

// advantage scores how comparatively fast a machine of the ti-th type runs
// j's map tasks: the mean service time across hardware types (summed in
// TypeSpecs order) divided by the time on this type. >1 means this machine
// is a comparatively good home for the job.
func (t *Tarazu) advantage(ctx *mapreduce.Context, j *mapreduce.Job, ti int) float64 {
	var mean float64
	types := len(ctx.TypeSpecs())
	for i := range types {
		mean += ctx.EstimateMapSeconds(j, i)
	}
	mean /= float64(types)
	return mean / ctx.EstimateMapSeconds(j, ti)
}

// AssignMap implements mapreduce.Scheduler: among jobs below fair share,
// pick the one whose map tasks run comparatively fastest on this machine
// (performance affinity), preferring data-local work; remote tasks are
// additionally gated by the machine's capability share so slow machines
// cannot swamp the network pulling blocks they process slowly.
func (t *Tarazu) AssignMap(ctx *mapreduce.Context, m cluster.Machine) *mapreduce.Task {
	t.init(ctx)
	if ctx.PendingTasks(mapreduce.MapTask) == 0 {
		return nil
	}
	var best *mapreduce.Job
	bestScore := 0.0
	ti := ctx.TypeIndex(m)
	for _, j := range ctx.ActiveJobs() {
		if j.PendingMaps() == 0 {
			continue
		}
		score := t.advantage(ctx, j, ti)
		if ctx.HasLocalMap(j, m) {
			score *= t.localBoost
		}
		if best == nil || score > bestScore {
			best = j
			bestScore = score
		}
	}
	if best == nil {
		return nil
	}
	if !ctx.HasLocalMap(best, m) && t.totalStarted > 0 {
		// Remote work: only if this machine has not exceeded its share
		// of the fleet's map throughput.
		share := float64(t.started[m.ID()]+1) / float64(t.totalStarted+1)
		if share > t.capShare[m.ID()]*t.slack {
			return nil
		}
	}
	task := ctx.PopMapPreferLocal(best, m)
	if task != nil {
		t.note(m)
	}
	return task
}

func (t *Tarazu) note(m cluster.Machine) {
	t.started[m.ID()]++
	t.totalStarted++
}

// AssignReduce implements mapreduce.Scheduler: reduces follow the same
// comparative-speed affinity over reduce compute time.
func (t *Tarazu) AssignReduce(ctx *mapreduce.Context, m cluster.Machine) *mapreduce.Task {
	t.init(ctx)
	if ctx.ReadyReduceTasks() == 0 {
		return nil
	}
	var best *mapreduce.Job
	bestScore := 0.0
	types, ti := len(ctx.TypeSpecs()), ctx.TypeIndex(m)
	for _, j := range ctx.ActiveJobs() {
		if !ctx.ReduceReady(j) {
			continue
		}
		var mean float64
		for i := range types {
			mean += ctx.EstimateReduceSeconds(j, i)
		}
		mean /= float64(types)
		own := ctx.EstimateReduceSeconds(j, ti)
		score := 1.0
		if own > 0 {
			score = mean / own
		}
		if best == nil || score > bestScore {
			best = j
			bestScore = score
		}
	}
	if best == nil {
		return nil
	}
	return ctx.PopReduce(best)
}

// OnTaskComplete implements mapreduce.Scheduler; Tarazu's balancing state
// is advanced at assignment time.
func (t *Tarazu) OnTaskComplete(*mapreduce.Context, *mapreduce.Task) {}

// OnControlTick implements mapreduce.Scheduler.
func (t *Tarazu) OnControlTick(*mapreduce.Context) {}
