package core

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"eant/internal/cluster"
	"eant/internal/mapreduce"
)

// EAnt is the adaptive task assigner (§III–IV). It plugs into the
// simulated JobTracker as a mapreduce.Scheduler.
//
// Assignment realizes Eq. 8 at heartbeat granularity in two steps when a
// machine offers a free slot:
//
//  1. Colony selection — roulette over w(j) = τ(j,m)·η(j)^β among jobs
//     with pending work. Jobs holding data-local blocks on m form a
//     priority tier (η = ∞ in Eq. 7) when β > 0.
//  2. Path acceptance — the chosen colony runs on m with probability
//     τ(j,m)/max_m' τ(j,m'). Declining leaves the slot idle until the
//     next heartbeat; this is how E-Ant steers work away from machines it
//     has learned are energy-inefficient for the colony, rather than
//     greedily filling every slot as Fair does.
type EAnt struct {
	p  Params
	mx *Matrix

	// etaMaxPow is EtaMax^β, the Eq. 8 heuristic factor of every
	// data-local candidate (η = ∞ capped at EtaMax), fixed per run.
	etaMaxPow float64

	// Heartbeat-path scratch, reused across slot offers so steady-state
	// assignment allocates nothing. Safe because a scheduler instance is
	// owned by exactly one single-threaded driver (see DESIGN.md's
	// concurrency model).
	scratchJobs    []*mapreduce.Job
	scratchCols    []*colony
	scratchWeights []float64
	scratchAvail   []bool
	unavailable    []bool

	// Host-index build scratch (rankHosts), one entry per trail class:
	// the classes sorted by trail, each class's rank, and each rank's next
	// free position in the index.
	classOrder []classTrail
	classRank  []int
	rankNext   []int

	// Per-control-interval index state. Trails only change at the control
	// tick, so each map colony's trail-ranked host view (hostIndex) is
	// valid for a whole interval; tickSeq stamps indices with the interval
	// they were built in (starting at 1 so a zero-valued stamp never
	// matches), and indexed lists the colonies holding a current-interval
	// index so slot-change notifications can keep their free counters live.
	tickSeq uint64
	indexed []*colony

	// live is the control tick's scratch liveness of the run's job slots,
	// retained so the tick handler allocates nothing in steady state.
	live []bool
}

// hostIndex is one map colony's per-control-interval view of the fleet
// for the decline guard: available machines ranked by trail strength
// (value descending, machine ID ascending on ties) with prefix-summed map
// slot capacity and bucketed free-slot counters, so "can the better-trail
// machines absorb the backlog, and does one have a free slot now" is a
// binary search plus O(1)-ish counter reads instead of a machine scan.
type hostIndex struct {
	tick   uint64 // e.tickSeq when built
	epoch  uint64 // availability epoch when built (crash/recover invalidates)
	listed uint64 // e.tickSeq when appended to e.indexed

	ids         []int
	vals        []float64
	prefixSlots []int
	rankOf      []int
	freeBuckets []int
}

// classTrail is one trail class and its value in the row being ranked.
type classTrail struct {
	tau   float64
	class int
}

// countAtLeast returns how many ranked machines have trail ≥ threshold.
func (idx *hostIndex) countAtLeast(threshold float64) int {
	return sort.Search(len(idx.vals), func(i int) bool { return idx.vals[i] < threshold })
}

// NewEAnt returns an E-Ant scheduler with the given parameters.
func NewEAnt(p Params) (*EAnt, error) {
	e := new(EAnt)
	if err := e.ResetForRun(p); err != nil {
		return nil, err
	}
	return e, nil
}

// MustNewEAnt is NewEAnt for known-valid parameters.
func MustNewEAnt(p Params) *EAnt {
	e, err := NewEAnt(p)
	if err != nil {
		panic(err)
	}
	return e
}

var (
	_ mapreduce.Scheduler     = (*EAnt)(nil)
	_ mapreduce.SlotObserver  = (*EAnt)(nil)
	_ mapreduce.QuietWhenIdle = (*EAnt)(nil)
)

// QuietWhenIdle implements mapreduce.QuietWhenIdle: both Assign methods
// return nil on an empty queue without drawing randomness. The lazy init
// before that check reads only the static fleet, and OnSlotFreeChange is a
// no-op until the first control tick, so running init at a later offer
// changes nothing.
func (e *EAnt) QuietWhenIdle() {}

// ResetForRun returns the scheduler to its pre-run state in place so the
// same instance can drive another simulation over the same cluster,
// adopting new parameters (sweeps vary Beta and friends between runs of
// one warm world). The pheromone matrix and every scratch buffer are kept;
// colonies are recycled through the matrix pool.
// NewEAnt is ResetForRun on an empty scheduler and initSlow only allocates
// storage, so a new scheduler and a reset one start a run alike.
func (e *EAnt) ResetForRun(p Params) error {
	if err := p.Validate(); err != nil {
		return err
	}
	e.p = p
	e.etaMaxPow = math.Pow(p.EtaMax, p.Beta)
	e.tickSeq = 1
	clear(e.indexed)
	e.indexed = e.indexed[:0]
	if e.mx != nil {
		if err := e.mx.Clear(p); err != nil {
			return err
		}
	}
	return nil
}

// OnSlotFreeChange implements mapreduce.SlotObserver: the driver reports
// every ±1 free-slot transition, and the current interval's host indices
// fold it into the affected machine's rank bucket. Indices stamped with an
// older tick or availability epoch are already invalid (they rebuild on
// next use) and are left alone. Reduce-slot changes are ignored — only the
// map decline guard consumes a host index.
func (e *EAnt) OnSlotFreeChange(ctx *mapreduce.Context, m cluster.Machine, kind mapreduce.TaskKind, delta int) {
	if kind != mapreduce.MapTask || len(e.indexed) == 0 {
		return
	}
	epoch := ctx.AvailabilityEpoch()
	for _, c := range e.indexed {
		idx := c.idx
		if idx.tick != e.tickSeq || idx.epoch != epoch {
			continue
		}
		if r := idx.rankOf[m.ID()]; r >= 0 {
			idx.freeBuckets[r>>6] += delta
		}
	}
}

// Name implements mapreduce.Scheduler.
func (e *EAnt) Name() string { return "E-Ant" }

// init is called on every offer; the fast path must inline to a single
// load-and-branch, so the one-time construction lives in initSlow.
func (e *EAnt) init(ctx *mapreduce.Context) {
	if e.mx == nil {
		e.initSlow(ctx)
	}
}

// initSlow performs the one-time construction. The matrix's machine groups
// (the machine-level exchange's homogeneous groups) are the fleet's
// hardware types, in cluster.ByType order.
func (e *EAnt) initSlow(ctx *mapreduce.Context) {
	var groups [][]int
	for _, name := range ctx.Cluster.TypeNames() {
		var ids []int
		for _, m := range ctx.Cluster.ByType(name) {
			ids = append(ids, m.ID())
		}
		groups = append(groups, ids)
	}
	mx, err := NewMatrix(ctx.Cluster.Size(), groups, e.p)
	if err != nil {
		panic(err) // params were validated in NewEAnt; groups partition the fleet
	}
	e.mx = mx
}

// key builds the colony key for a job's tasks of one kind.
func key(j *mapreduce.Job, kind mapreduce.TaskKind) ColonyKey {
	return ColonyKey{JobID: j.Spec.ID, App: j.Spec.App, Kind: kind}
}

// FairnessEta evaluates the fairness branch of the heuristic function
// (Eq. 7):
//
//	η(j) = 1 / (1 − (S_min − S_occ)/S_pool)
//
// η > 1 for starved jobs (occupancy sOcc below the fair share sMin), < 1
// for jobs above fair share, clamped into [1/etaMax, etaMax]. The locality
// branch's η = ∞ is represented by the etaMax cap. An empty slot pool
// (sPool ≤ 0) yields the neutral η = 1.
func FairnessEta(sMin, sOcc, sPool, etaMax float64) float64 {
	if sPool <= 0 {
		return 1
	}
	denom := 1 - (sMin-sOcc)/sPool
	if denom <= 1/etaMax {
		return etaMax
	}
	return clamp(1/denom, 1/etaMax, etaMax)
}

// eta evaluates Eq. 7's fairness branch for one job against the live slot
// pool (which shrinks while machines are crashed).
func (e *EAnt) eta(ctx *mapreduce.Context, j *mapreduce.Job) float64 {
	return FairnessEta(ctx.FairShare(j), float64(j.Running()), float64(ctx.TotalSlots()), e.p.EtaMax)
}

// weight evaluates the Eq. 8 numerator τ(j,m)·η(j,m)^β, bit-identical to
// the paper-literal HeuristicWeight that TestWeightMatchesHeuristicWeight
// checks it against. Following Eq. 7, η is the (capped) locality bonus when
// the job holds a local block on the machine, and the fairness deficit
// otherwise; β controls how hard heuristic information overrides the
// energy trails. The locality power is fixed per run and the fairness
// power memoized per colony, so most offers evaluate no math.Pow.
// The colony is pre-resolved by selectColony: one slot-table read per
// candidate per offer instead of one lookup per weight/accept evaluation.
func (e *EAnt) weight(ctx *mapreduce.Context, j *mapreduce.Job, c *colony, kind mapreduce.TaskKind, m cluster.Machine) float64 {
	tau := c.row[m.ID()]
	if e.p.Beta <= 0 {
		return tau
	}
	if kind == mapreduce.MapTask && ctx.HasLocalMap(j, m) {
		return tau * e.etaMaxPow
	}
	return tau * c.powEta(e.eta(ctx, j), e.p.Beta)
}

// pickIndex draws one still-available candidate index by roulette over the
// precomputed Eq. 8 weights (first argmax among the available under the
// Greedy ablation). Masking declined candidates instead of splicing them
// out preserves both the candidate order and the roulette walk exactly:
// a masked weight contributes +0.0 to the float total and is skipped by
// the walk, which is bit-identical to its absence.
func (e *EAnt) pickIndex(ctx *mapreduce.Context, weights []float64, avail []bool) int {
	if e.p.Greedy {
		best := -1
		for i, w := range weights {
			if !avail[i] {
				continue
			}
			if best < 0 || w > weights[best] {
				best = i
			}
		}
		return best
	}
	return RouletteSelect(ctx.Rng, weights, avail)
}

// betterHostFactor is how much stronger another machine's trail must be
// before declining in its favor is considered.
const betterHostFactor = 1.2

// accepts decides whether machine m takes a task of the colony. Trails are
// mean-normalized per colony, so τ(j,m) directly reads as "goodness of m
// relative to the colony's average machine": above-average machines always
// accept; a below-average machine accepts with probability τ. A sampled
// decline is honored only when deferring cannot cost throughput:
//
//  1. the fleet-wide pending work of this task kind must fit inside the
//     better-trail machines' slot capacity (otherwise the work spills here
//     regardless and declining merely drip-feeds the backlog through a
//     few favored slots), and
//  2. a better-trail machine must have a free slot right now, so the task
//     is picked up within a heartbeat rather than parked.
//
// Deliberately idling a slot only saves energy when a better host actually
// runs the task instead — every machine keeps burning idle power while a
// task waits. These guards confine declining to light load and job tails,
// which is exactly where the paper's adaptive steering pays off
// (Fig. 1a); under saturation E-Ant stays work-conserving and colony
// *selection* does the affinity matching (Figs. 8b, 9).
func (e *EAnt) accepts(ctx *mapreduce.Context, j *mapreduce.Job, c *colony, kind mapreduce.TaskKind, m cluster.Machine) bool {
	// Under server consolidation a sleeping machine costs a wake (resume
	// latency plus a return to full idle draw); decline unless the awake
	// fleet genuinely cannot absorb the pending work. Pending work is
	// aggregated across ALL active jobs: better hosts are shared, so
	// judging against one colony's backlog would let every colony assume
	// the same free capacity and collectively over-decline. This is the
	// only path that reads pending on a reduce offer — an awake machine's
	// reduce acceptance never consults it.
	if m.Asleep() {
		// m sits in the asleep availability class, so the awake aggregates
		// exclude it — same machine set the old self-skipping scan covered.
		pending := ctx.PendingTasks(kind)
		awakeSlots, awakeFree := ctx.AwakeSlots(kind)
		if pending <= awakeSlots && awakeFree > 0 {
			return false
		}
	}
	if kind == mapreduce.ReduceTask {
		// Reduce placement adapts through colony selection only (see
		// selectColony); past the sleep guard it always accepts.
		return true
	}

	tau := c.row[m.ID()]
	if tau >= 1 {
		return true
	}
	p := clamp(tau, e.p.AcceptFloor, 1)
	if e.p.Greedy {
		if p >= 0.5 {
			return true
		}
	} else if ctx.Rng.Bernoulli(p) {
		return true
	}
	// A sampled decline is honored only when the better-trail machines can
	// absorb the whole backlog AND one of them has a free slot right now.
	return !e.betterHostsAbsorb(ctx, c, m)
}

// betterHostsAbsorb reports whether the machines whose trail for the
// colony is meaningfully stronger than m's have enough slot capacity for
// the fleet-wide pending map work and at least one currently-free map
// slot — the two conditions under which declining a map assignment cannot
// cost throughput. Served from the colony's per-interval host index: the
// trail threshold becomes a rank from a binary search, capacity a prefix
// sum, and the free-slot existence test a walk over 64-rank counters.
// m itself never qualifies (threshold > its own trail, trails are > 0),
// matching the old scan's explicit self-exclusion.
func (e *EAnt) betterHostsAbsorb(ctx *mapreduce.Context, c *colony, m cluster.Machine) bool {
	idx := c.idx
	if idx == nil || idx.tick != e.tickSeq || idx.epoch != ctx.AvailabilityEpoch() {
		idx = e.buildIndex(ctx, c)
	}
	r := idx.countAtLeast(c.row[m.ID()] * betterHostFactor)
	if ctx.PendingTasks(mapreduce.MapTask) > idx.prefixSlots[r] {
		return false
	}
	return e.anyFreeInRanks(ctx, idx, r)
}

// anyFreeInRanks reports whether any of the index's first r machines has a
// free map slot: whole 64-rank buckets answer from their counters, the
// partial tail bucket is probed machine by machine.
func (e *EAnt) anyFreeInRanks(ctx *mapreduce.Context, idx *hostIndex, r int) bool {
	full := r >> 6
	for b := 0; b < full; b++ {
		if idx.freeBuckets[b] > 0 {
			return true
		}
	}
	machines := ctx.Cluster.Machines()
	for i := full << 6; i < r; i++ {
		if machines[idx.ids[i]].FreeMapSlots() > 0 {
			return true
		}
	}
	return false
}

// buildIndex (re)builds the colony's host index for the current control
// interval and availability epoch, reusing the colony's buffers. Called at
// most once per map colony per interval on a healthy fleet; a crash or
// recovery bumps the availability epoch and forces a rebuild on next use.
func (e *EAnt) buildIndex(ctx *mapreduce.Context, c *colony) *hostIndex {
	idx := c.idx
	if idx == nil {
		idx = &hostIndex{}
		c.idx = idx
	}
	e.rankHosts(idx, ctx.Cluster.Machines(), c.row)
	idx.tick = e.tickSeq
	idx.epoch = ctx.AvailabilityEpoch()
	if idx.listed != e.tickSeq {
		idx.listed = e.tickSeq
		e.indexed = append(e.indexed, c)
	}
	return idx
}

// rankHosts fills idx with the available machines ranked by their trail in
// row, a row of the matrix: trail descending, then machine ID ascending.
// It sorts no machines. Every row is constant on each trail class
// (DESIGN.md §18), so the classes are ranked by value (equal values share
// a rank), and one counting pass over the machines in ID order places each
// available machine at its rank's next position: O(M + K log K) for K
// classes instead of O(M log M).
func (e *EAnt) rankHosts(idx *hostIndex, machines []cluster.Machine, row []float64) {
	mx := e.mx
	ranks := e.rankClasses(row)

	// Count each rank's available machines into rankNext, with rankOf
	// holding each machine's rank for now (-1: unavailable), then turn the
	// counts into each rank's first position.
	if cap(idx.rankOf) < len(machines) {
		idx.rankOf = make([]int, len(machines))
	}
	idx.rankOf = idx.rankOf[:len(machines)]
	next := classBuf(e.rankNext, mx)[:ranks]
	e.rankNext = next
	clear(next)
	n := 0
	for id, m := range machines {
		r := -1
		if m.Available() {
			r = e.classRank[mx.classOf[id]]
			next[r]++
			n++
		}
		idx.rankOf[id] = r
	}
	pos := 0
	for r, k := range next {
		next[r] = pos
		pos += k
	}
	// Place the machines in ID order, so each rank lists its members by
	// ascending ID.
	if cap(idx.ids) < n {
		idx.ids = make([]int, n, len(machines))
	}
	ids := idx.ids[:n]
	for id, r := range idx.rankOf {
		if r < 0 {
			continue
		}
		ids[next[r]] = id
		idx.rankOf[id] = next[r]
		next[r]++
	}
	idx.ids = ids

	idx.vals = idx.vals[:0]
	idx.prefixSlots = append(idx.prefixSlots[:0], 0)
	idx.freeBuckets = idx.freeBuckets[:0]
	for b := (len(ids) + 63) / 64; b > 0; b-- {
		idx.freeBuckets = append(idx.freeBuckets, 0)
	}
	slots := 0
	for rank, id := range ids {
		m := machines[id]
		idx.vals = append(idx.vals, row[id])
		slots += m.Spec().MapSlots
		idx.prefixSlots = append(idx.prefixSlots, slots)
		idx.freeBuckets[rank>>6] += m.FreeMapSlots()
	}
}

// rankClasses ranks the matrix's trail classes by their value in row,
// strongest first, into e.classRank (class → rank): classes of equal value
// share a rank, so ranks are dense. It returns the number of ranks.
func (e *EAnt) rankClasses(row []float64) int {
	mx := e.mx
	order := classBuf(e.classOrder, mx)
	for k, m := range mx.classRep {
		order[k] = classTrail{tau: row[m], class: k}
	}
	slices.SortFunc(order, func(a, b classTrail) int { return cmp.Compare(b.tau, a.tau) })
	e.classOrder = order
	rank := classBuf(e.classRank, mx)
	e.classRank = rank
	ranks := 0
	for i, ct := range order {
		if i > 0 && ct.tau != order[i-1].tau {
			ranks++
		}
		rank[ct.class] = ranks
	}
	return ranks + 1
}

// selectColony realizes Eq. 8 for one slot offer: restrict candidates to
// data-local colonies when the locality branch of Eq. 7 applies (η = ∞),
// then repeatedly roulette-draw a colony and test path acceptance. Map
// assignments pass the pheromone acceptance gate, which is what lets
// E-Ant starve machines it has learned are energy-inefficient. Reduce
// assignments adapt through colony selection only: a job has few, heavy
// reduce tasks, and declining one serializes the job tail on the favored
// machines — the energy cost of the stretched makespan always exceeds
// the dynamic-energy saving of the better host.
func (e *EAnt) selectColony(ctx *mapreduce.Context, m cluster.Machine, candidates []*mapreduce.Job, kind mapreduce.TaskKind) (*mapreduce.Job, *colony) {
	if len(candidates) == 0 {
		return nil, nil
	}
	// Resolve each candidate's colony once, in candidate order — creating
	// missing colonies in exactly the order the old per-evaluation lookups
	// did, which pins the Matrix's deterministic iteration order — so the
	// draw loop below reads rows directly.
	cols := e.scratchCols[:0]
	for _, j := range candidates {
		cols = append(cols, e.mx.colonyAt(j.Slot(), key(j, kind)))
	}
	e.scratchCols = cols
	// Weights depend only on trails, fairness occupancy, and locality —
	// none of which an intra-offer decline changes — so they are computed
	// once and declined colonies are masked out in place for the redraw.
	weights := e.scratchWeights[:0]
	for i, j := range candidates {
		weights = append(weights, e.weight(ctx, j, cols[i], kind, m))
	}
	e.scratchWeights = weights
	avail := e.scratchAvail[:0]
	for range candidates {
		avail = append(avail, true)
	}
	e.scratchAvail = avail

	draws := e.p.ColonyDraws
	if len(candidates) < draws {
		draws = len(candidates)
	}
	for attempt := 0; attempt < draws; attempt++ {
		i := e.pickIndex(ctx, weights, avail)
		j := candidates[i]
		ok := e.accepts(ctx, j, cols[i], kind, m)
		// The probe is a pure observer of the decision: the trail is a
		// plain row read on the pre-resolved colony, and no randomness is
		// drawn, so instrumented runs replay bit-identically.
		if pr := ctx.Probe(); pr != nil {
			pr.Draw(ctx.Now(), m.ID(), j.Spec.ID, int8(kind), cols[i].row[m.ID()], weights[i], ok)
		}
		if ok {
			return j, cols[i]
		}
		// Mask the declined colony and redraw: m may still be a good host
		// for a different colony.
		avail[i] = false
	}
	return nil, nil
}

// AssignMap implements mapreduce.Scheduler.
func (e *EAnt) AssignMap(ctx *mapreduce.Context, m cluster.Machine) *mapreduce.Task {
	e.init(ctx)
	// With no pending map anywhere the candidate list below is empty and
	// selectColony returns nil without drawing randomness; skip the
	// active-job scan (one offer per free slot on every heartbeat).
	if ctx.PendingTasks(mapreduce.MapTask) == 0 {
		return nil
	}

	pending := e.scratchJobs[:0]
	for _, j := range ctx.ActiveJobs() {
		if j.PendingMaps() > 0 {
			pending = append(pending, j)
		}
	}
	e.scratchJobs = pending
	j, _ := e.selectColony(ctx, m, pending, mapreduce.MapTask)
	if j == nil {
		return nil
	}
	return ctx.PopMapPreferLocal(j, m)
}

// slowReduceFactor flags a machine as a pathological home for a job's
// reduces when its compute time exceeds this multiple of the type mean.
const slowReduceFactor = 2.0

// AssignReduce implements mapreduce.Scheduler.
func (e *EAnt) AssignReduce(ctx *mapreduce.Context, m cluster.Machine) *mapreduce.Task {
	e.init(ctx)
	// Ready-reduce count is maintained incrementally by the driver; zero
	// means ReduceReady holds for no job, so the scan would yield nothing.
	if ctx.ReadyReduceTasks() == 0 {
		return nil
	}
	ready := e.scratchJobs[:0]
	for _, j := range ctx.ActiveJobs() {
		if ctx.ReduceReady(j) {
			ready = append(ready, j)
		}
	}
	e.scratchJobs = ready
	j, c := e.selectColony(ctx, m, ready, mapreduce.ReduceTask)
	if j == nil {
		return nil
	}
	if e.reduceWouldStraggle(ctx, j, c, m) {
		return nil
	}
	return ctx.PopReduce(j)
}

// reduceWouldStraggle reports whether parking one of j's reduces on m
// would create a tail straggler: m runs the reduce far slower than the
// fleet average and a faster machine has a free reduce slot right now.
// Reduces are few and heavy, so one bad placement can serialize a job's
// tail for longer than the whole map phase (the §I Atom anecdote: a third
// of the energy, three times the wall clock — a loss once the rest of the
// fleet sits burning idle power waiting for it). c is j's reduce colony,
// which memoizes the job's fleet-mean estimate.
func (e *EAnt) reduceWouldStraggle(ctx *mapreduce.Context, j *mapreduce.Job, c *colony, m cluster.Machine) bool {
	own := ctx.EstimateReduceSeconds(j, ctx.TypeIndex(m))
	if own <= 0 {
		return false
	}
	types := len(ctx.TypeSpecs())
	mean := c.reduceMean
	if mean == 0 {
		// Fleet-mean reduce estimate over the machine types, summed in
		// TypeSpecs (sorted type-name) order — the same accumulation order
		// as the old per-offer loop. Static per job, so computed once.
		for ti := range types {
			mean += ctx.EstimateReduceSeconds(j, ti)
		}
		mean /= float64(types)
		c.reduceMean = mean
	}
	if own <= mean*slowReduceFactor {
		return false
	}
	// A fast machine with a free reduce slot exists iff some machine TYPE
	// is fast and has free reduce slots. m's own type is never fast here
	// (its estimate is own > mean·factor), so m needs no special-casing —
	// matching the old scan's self-exclusion.
	for ti := range types {
		if ctx.EstimateReduceSeconds(j, ti) <= mean*slowReduceFactor && ctx.FreeReduceSlotsOfType(ti) > 0 {
			return true
		}
	}
	return false
}

// OnTaskComplete implements mapreduce.Scheduler: the TaskTracker's energy
// report becomes pheromone feedback.
func (e *EAnt) OnTaskComplete(ctx *mapreduce.Context, t *mapreduce.Task) {
	e.init(ctx)
	e.mx.feedback(e.mx.colonyAt(t.Job.Slot(), key(t.Job, t.Kind)), t.Machine.ID(), t.EstJoules)
}

// OnControlTick implements mapreduce.Scheduler: retire finished colonies
// and fold the interval's feedback into the trails.
func (e *EAnt) OnControlTick(ctx *mapreduce.Context) {
	e.init(ctx)
	// Trails are about to change: open a new index interval and drop the
	// indexed-colony list BEFORE retiring colonies, so it never holds a
	// reference to a retired colony.
	e.tickSeq++
	e.indexed = e.indexed[:0]
	// Colonies occupy the slot table's first len(bySlot) entries, two per
	// job slot; an active job past them has no colony yet.
	n := (len(e.mx.bySlot) + 1) >> 1
	live := slices.Grow(e.live[:0], n)[:n]
	clear(live)
	for _, j := range ctx.ActiveJobs() {
		if s := j.Slot(); s < n {
			live[s] = true
		}
	}
	e.live = live
	e.mx.retire(live)
	// Crashed machines' trails are frozen out of the exchange and left to
	// evaporate (nil when the fleet is healthy).
	if e.unavailable == nil {
		e.unavailable = make([]bool, ctx.Cluster.Size())
	}
	anyDown := false
	for i := range e.unavailable {
		e.unavailable[i] = false
	}
	for _, m := range ctx.Cluster.Machines() {
		if !m.Available() {
			e.unavailable[m.ID()] = true
			anyDown = true
		}
	}
	var unavailable []bool
	if anyDown {
		unavailable = e.unavailable
	}
	e.mx.Update(unavailable)
	// Pheromone-matrix snapshot for the observability layer: one row per
	// colony, in the matrix's insertion order (deterministic). TrailRow
	// copies each live row for the probe's sink, and that copy is the only
	// one.
	if pr := ctx.Probe(); pr.TrailsEnabled() {
		for _, c := range e.mx.cols {
			pr.TrailRow(ctx.Now(), c.key.JobID, int8(c.key.Kind), c.key.App.String(), c.row)
		}
	}
}
