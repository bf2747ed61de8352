package core

import (
	"fmt"
	"math"
	"slices"

	"eant/internal/mapreduce"
	"eant/internal/sim"
	"eant/internal/workload"
)

// ColonyKey identifies one ant colony: a job's tasks of one kind. Map and
// reduce tasks of the same job form separate colonies because their energy
// profiles differ (§III-A: machines ranked highly "will likely be assigned
// with more of the same type of tasks"; Fig. 9b shows the resulting split).
type ColonyKey struct {
	JobID int
	App   workload.App
	Kind  mapreduce.TaskKind
}

// reward is one task's completion feedback gathered within the current
// control interval.
type reward struct {
	machineID int
	joules    float64
}

// colony is one ant colony's live state: its pheromone row, the rewards
// accumulated since the last Update, and per-Update scratch buffers
// (reused across intervals so the control tick allocates nothing in
// steady state).
type colony struct {
	key     ColonyKey
	row     []float64
	pending []reward

	// delta/count are Update scratch: per-trail-class deposit and feedback
	// count for the current interval, and pair the colony's entry in
	// Matrix.pairs. Valid only while hasDelta is set.
	delta    []float64
	count    []int
	pair     int
	hasDelta bool

	// etaBits/etaPow memoize the colony's last fairness η (by its bits) and
	// η^β for E-Ant's offer path. η > 0, so the zeroed memo never hits.
	etaBits uint64
	etaPow  float64
	// reduceMean memoizes a reduce colony's fleet-mean reduce estimate for
	// E-Ant's straggler guard; 0 until computed. The guard computes it only
	// once the offered machine's own estimate is positive, so a computed
	// mean is positive.
	reduceMean float64

	// slot is the colony's entry in Matrix.bySlot: its job slot times two,
	// plus one for reduces.
	slot int

	// idx is the colony's per-control-interval host index (E-Ant's decline
	// guard): trails only change at the control tick, so the trail-ranked
	// machine view is rebuilt at most once per colony per interval. Owned
	// and stamped by EAnt (see eant.go); buffers are reused across rebuilds.
	idx *hostIndex
}

// powEta returns η^β, memoized on η's bits: β is fixed for a colony's life
// (a parameter change goes through Matrix.Clear, which recycles every
// colony), and a job's η only moves when its occupancy or the active job
// set does, so consecutive offers mostly reuse the last power.
func (c *colony) powEta(eta, beta float64) float64 {
	if b := math.Float64bits(eta); b != c.etaBits {
		c.etaBits, c.etaPow = b, math.Pow(eta, beta)
	}
	return c.etaPow
}

// Matrix holds pheromone trails per colony over the machine set and folds
// in per-interval energy feedback according to Eqs. 4–6 and the §IV-D
// exchange strategies.
//
// Colonies live in a flat, insertion-ordered table and are found by their
// job's slot in the run's mix, never by hashing a key. Every cross-colony
// fold in Update iterates the table in insertion order — float
// accumulation order is fixed, so runs are bit-for-bit reproducible
// instead of depending on Go's randomized map iteration.
//
// Update computes each trail once per trail class: a set of machines on
// which every colony's trail is provably equal (DESIGN.md §18). Rows stay
// dense; Update writes each class value into every member's entry.
type Matrix struct {
	p        Params
	machines int
	cols     []*colony

	// bySlot holds the colony of each (job slot, kind) of the current run,
	// maps at 2·slot and reduces at 2·slot+1 (mapreduce.Job.Slot).
	// colonyAt fills an entry on first touch; retirement clears a colony's
	// entry (its slot field) and Clear every entry, so an entry is nil or a
	// live colony.
	bySlot []*colony

	// pool recycles retired colonies (their row/pending/delta/count/idx
	// buffers) so a warm rerun of the same workload allocates no new colony
	// state. Acquisition re-initializes every reused field, so a pooled
	// colony is observationally identical to a fresh one.
	pool []*colony

	// groups lists the machine IDs of each homogeneous hardware group, in
	// the order the machine-level exchange sums them; fixed at NewMatrix.
	groups [][]int

	// Trail classes. classOf maps a machine to its class; each class has a
	// representative member whose row entry is the class value, a size and
	// the group its members belong to (-1: none). Clear restores the
	// starting partition and Update splits off machines seen down; classes
	// never merge.
	classOf    []int
	classRep   []int
	classSize  []int
	classGroup []int

	// Update scratch, retained across ticks and runs: the fleet-sized raw
	// reward sums and counts (zero between colonies), the machine-level
	// exchange fold per group, each class's new value, and the per-(app,
	// kind) folds.
	raw      []float64
	rawN     []int
	exch     []groupFold
	classVal []float64
	pairs    []pairFold
}

// groupFold is one machine group's machine-level exchange fold for one
// colony: the raw reward sum, the task count and how many members
// produced feedback.
type groupFold struct {
	sum            float64
	tasks, members int
}

// pairFold accumulates one (app, kind) pair's per-class folds during an
// update tick: the job-level exchange sum over the pair's colonies, and the
// Eq. 6 competitor sum over the same kind's colonies of other apps. Pair
// cardinality is tiny (apps × two task kinds), so entries are found by
// linear scan and reused across ticks.
type pairFold struct {
	app   workload.App
	kind  mapreduce.TaskKind
	sum   []float64
	count int
	comp  []float64
	compN int
}

// NewMatrix returns an empty pheromone matrix over the given machine count.
// groups lists the machine IDs of each homogeneous hardware group, the
// machine-level exchange's unit; a machine may be in at most one group,
// and a machine in none exchanges with no other.
func NewMatrix(machines int, groups [][]int, p Params) (*Matrix, error) {
	if machines <= 0 {
		return nil, fmt.Errorf("core: matrix over %d machines", machines)
	}
	mx := &Matrix{
		machines:   machines,
		groups:     make([][]int, len(groups)),
		classOf:    make([]int, machines),
		classRep:   make([]int, 0, machines),
		classSize:  make([]int, 0, machines),
		classGroup: make([]int, 0, machines),
		raw:        make([]float64, machines),
		rawN:       make([]int, machines),
		exch:       make([]groupFold, len(groups)),
	}
	listed := make([]bool, machines)
	for g, ids := range groups {
		for _, id := range ids {
			if id < 0 || id >= machines {
				return nil, fmt.Errorf("core: group %d lists machine %d of %d", g, id, machines)
			}
			if listed[id] {
				return nil, fmt.Errorf("core: machine %d listed twice in groups", id)
			}
			listed[id] = true
		}
		mx.groups[g] = slices.Clone(ids)
	}
	if err := mx.Clear(p); err != nil {
		return nil, err
	}
	return mx, nil
}

// colonyAt returns the colony of the job at slot in the current run, whose
// key is key: the slot table's entry, created on first touch by
// newColony. Entries hold for one run, so a policy that reuses the matrix
// for another run must Clear it first.
func (mx *Matrix) colonyAt(slot int, key ColonyKey) *colony {
	i := slot<<1 | int(key.Kind-mapreduce.MapTask)
	if i < len(mx.bySlot) {
		if c := mx.bySlot[i]; c != nil {
			return c
		}
	} else {
		mx.bySlot = append(mx.bySlot, make([]*colony, i+1-len(mx.bySlot))...)
	}
	c := mx.newColony(key)
	mx.bySlot[i], c.slot = c, i
	return c
}

// newColony appends a colony for key to the table. It warm-starts from
// existing same-(app, kind) colonies when job-level exchange is enabled —
// the sharing of experience that makes small-job convergence fast
// (Fig. 11b).
func (mx *Matrix) newColony(key ColonyKey) *colony {
	var c *colony
	if n := len(mx.pool); n > 0 {
		c = mx.pool[n-1]
		mx.pool[n-1] = nil
		mx.pool = mx.pool[:n-1]
		for i := range c.row {
			c.row[i] = 0
		}
		c.pending = c.pending[:0]
		c.hasDelta = false
		c.etaBits, c.etaPow, c.reduceMean = 0, 0, 0
		if c.idx != nil {
			// The index stamps compare against the owning EAnt's tickSeq
			// and availability epoch, both of which restart on a warm run;
			// a stale stamp could alias a live interval, so force rebuild.
			c.idx.tick, c.idx.epoch, c.idx.listed = 0, 0, 0
		}
	} else {
		c = &colony{row: make([]float64, mx.machines)}
	}
	c.key = key
	row := c.row
	donors := 0
	if mx.p.JobExchange {
		// Average every same-group colony's trails (not just one picked
		// arbitrarily): deterministic, and exactly the pooled experience
		// the job-level exchange maintains.
		for _, c := range mx.cols {
			if c.key.App == key.App && c.key.Kind == key.Kind {
				for i, v := range c.row {
					row[i] += v
				}
				donors++
			}
		}
	}
	for i := range row {
		if donors > 0 {
			row[i] /= float64(donors)
		} else {
			row[i] = mx.p.InitTau
		}
	}
	mx.cols = append(mx.cols, c)
	return c
}

// feedback records one completed task's estimated energy for colony c, to
// be folded in at the next Update.
func (mx *Matrix) feedback(c *colony, machineID int, joules float64) {
	if machineID < 0 || machineID >= mx.machines {
		panic(fmt.Sprintf("core: feedback for machine %d of %d", machineID, mx.machines))
	}
	if joules <= 0 {
		// Zero-energy tasks would produce infinite rewards; floor them.
		joules = 1e-9
	}
	c.pending = append(c.pending, reward{machineID: machineID, joules: joules})
}

// retire drops every colony whose job slot live does not mark, in one
// pass over the table; live is indexed by job slot and covers every
// colony's. Dropped colonies leave the slot table and move to the
// recycling pool.
func (mx *Matrix) retire(live []bool) {
	kept := mx.cols[:0]
	for _, c := range mx.cols {
		if live[c.slot>>1] {
			kept = append(kept, c)
			continue
		}
		mx.bySlot[c.slot] = nil
		mx.pool = append(mx.pool, c)
	}
	clear(mx.cols[len(kept):])
	mx.cols = kept
}

// Clear retires every colony into the recycling pool, adopts the given
// parameters and restores the starting trail classes, keeping every
// allocated buffer; NewMatrix is Clear on an empty matrix. p must validate.
func (mx *Matrix) Clear(p Params) error {
	if err := p.Validate(); err != nil {
		return err
	}
	mx.p = p
	for i, c := range mx.cols {
		mx.pool = append(mx.pool, c)
		mx.cols[i] = nil
	}
	mx.cols = mx.cols[:0]
	clear(mx.bySlot)
	// The starting partition depends on MachineExchange, which may change
	// between runs: one class per group under machine-level exchange, and
	// one per machine otherwise or outside every group.
	mx.classRep, mx.classSize, mx.classGroup = mx.classRep[:0], mx.classSize[:0], mx.classGroup[:0]
	for m := range mx.classOf {
		mx.classOf[m] = -1
	}
	if p.MachineExchange {
		for g, ids := range mx.groups {
			if len(ids) == 0 {
				continue
			}
			for _, id := range ids {
				mx.classOf[id] = len(mx.classRep)
			}
			mx.addClass(ids[0], len(ids), g)
		}
	}
	for m, k := range mx.classOf {
		if k < 0 {
			mx.classOf[m] = len(mx.classRep)
			mx.addClass(m, 1, -1)
		}
	}
	return nil
}

// addClass appends a trail class; the caller has pointed classOf at it.
func (mx *Matrix) addClass(rep, size, group int) {
	mx.classRep = append(mx.classRep, rep)
	mx.classSize = append(mx.classSize, size)
	mx.classGroup = append(mx.classGroup, group)
}

// splitDown moves every machine flagged unavailable that still shares a
// class into a class of its own for the rest of the run: a down machine
// gets no deposit and evaporates alone, so from this tick on its trail
// diverges from its group's.
func (mx *Matrix) splitDown(unavailable []bool) {
	for m, down := range unavailable[:min(len(unavailable), mx.machines)] {
		k := mx.classOf[m]
		if !down || mx.classSize[k] == 1 {
			continue
		}
		mx.classSize[k]--
		mx.classOf[m] = len(mx.classRep)
		mx.addClass(m, 1, mx.classGroup[k])
		if mx.classRep[k] == m {
			mx.classRep[k] = slices.Index(mx.classOf, k)
		}
	}
}

// classBuf returns s with one entry per trail class (contents
// unspecified). Classes only split and never outnumber the machines, so a
// buffer is allocated once at fleet size and never regrown.
func classBuf[T any](s []T, mx *Matrix) []T {
	if cap(s) < mx.machines {
		s = make([]T, mx.machines)
	}
	return s[:len(mx.classRep)]
}

// Update folds the interval's feedback into the trails:
//
//  1. Raw rewards per path (Eq. 5): Δτ(j,m) = Σ_tasks avgE_j / E_task,
//     where avgE_j is the mean energy of the colony's completed tasks.
//  2. Machine-level exchange (§IV-D): Δτ averaged across each homogeneous
//     machine group (NewMatrix's groups) that produced any feedback.
//  3. Job-level exchange (§IV-D): Δτ averaged across colonies of the same
//     (app, kind).
//  4. Negative feedback (Eq. 6): competing colonies are penalized on the
//     machines where this colony was rewarded.
//  5. Evaporation and deposit (Eq. 4): τ ← (1−ρ)τ + ρΔ, clamped, then the
//     row is rescaled to mean 1 (assignment probabilities are
//     scale-invariant; rescaling keeps trails inside the clamp range).
//
// unavailable flags crashed machines (fault injection; nil or short means
// up): a down machine receives no deposit, no share of the exchange
// averages and no negative feedback — its trails only evaporate toward
// the floor, so every colony gradually forgets a crashed machine until it
// recovers and produces fresh feedback. Rewards already recorded for tasks
// that completed on a since-crashed machine are dropped.
//
// Every stage runs once per trail class, in the float order of a
// per-machine fold, so the rows are bit-identical to computing each
// machine on its own (FuzzTrailClassUpdate holds the two equal).
func (mx *Matrix) Update(unavailable []bool) {
	down := func(id int) bool {
		return unavailable != nil && id < len(unavailable) && unavailable[id]
	}
	mx.splitDown(unavailable)
	mx.classVal = classBuf(mx.classVal, mx)

	// Stages 1–2: per-class deposits of every colony with feedback.
	withDelta := 0
	for _, c := range mx.cols {
		c.hasDelta = len(c.pending) > 0
		if c.hasDelta {
			mx.deposit(c, down)
			withDelta++
		}
	}

	// Stages 3–4: the cross-colony folds, once per (app, kind) pair.
	if withDelta > 0 && ((mx.p.JobExchange && withDelta > 1) || mx.p.NegativeFeedback) {
		mx.foldPairs(withDelta)
	}

	// Stage 5: per-colony evaporation and deposit.
	for _, c := range mx.cols {
		mx.updateRow(c, down)
	}

	for _, c := range mx.cols {
		c.pending = c.pending[:0]
		c.hasDelta = false
	}
}

// deposit sets c's per-class deposit and feedback count for the interval:
// raw rewards per machine, the machine-level exchange, and the reduction of
// sums to Gamma-sharpened mean experiences. With SumDeposits the deposit is
// the literal Eq. 4/5 sum Σ_n avgE/E_n, which also encodes completion
// counts; the default averages the per-task experiences and sharpens the
// ratio with Gamma, so trails read as pure relative energy efficiency.
func (mx *Matrix) deposit(c *colony, down func(int) bool) {
	var sum float64
	for _, r := range c.pending {
		sum += r.joules
	}
	avg := sum / float64(len(c.pending))
	raw, rawN := mx.raw, mx.rawN
	for _, r := range c.pending {
		if down(r.machineID) {
			continue
		}
		raw[r.machineID] += avg / r.joules
		rawN[r.machineID]++
	}

	// Machine-level exchange — pool experiences across each homogeneous
	// hardware group ("the average available experiences of the completed
	// tasks that visited those homogeneous machines"). Every up class of a
	// group with feedback takes the group's pooled value; down classes
	// take none.
	exchange := mx.p.MachineExchange
	if exchange {
		for g, ids := range mx.groups {
			f := groupFold{}
			for _, id := range ids {
				f.sum += raw[id]
				f.tasks += rawN[id]
				if rawN[id] > 0 {
					f.members++
				}
			}
			mx.exch[g] = f
		}
	}

	c.delta = classBuf(c.delta, mx)
	c.count = classBuf(c.count, mx)
	for k, m := range mx.classRep {
		d, n := raw[m], rawN[m]
		if g := mx.classGroup[k]; exchange && g >= 0 && mx.exch[g].tasks > 0 && !down(m) {
			f := mx.exch[g]
			if mx.p.SumDeposits {
				// Average the per-machine sums over members that
				// produced feedback.
				d, n = f.sum/float64(f.members), f.tasks/f.members
			} else {
				d, n = f.sum, f.tasks
			}
		}
		if !mx.p.SumDeposits && n > 0 {
			d = math.Pow(d/float64(n), mx.p.Gamma)
		}
		c.delta[k], c.count[k] = d, n
	}

	for _, r := range c.pending {
		raw[r.machineID], rawN[r.machineID] = 0, 0
	}
}

// foldPairs runs the job-level exchange and the Eq. 6 competitor fold
// over the colonies with feedback. Both depend only on a colony's (app,
// kind), so each pair's sums are folded once per class, over colonies in
// table (insertion) order: the float folds are deterministic and equal to
// folding them per colony and machine.
func (mx *Matrix) foldPairs(withDelta int) {
	pairs := mx.pairs[:0]
	for _, c := range mx.cols {
		if !c.hasDelta {
			continue
		}
		c.pair = -1
		for i := range pairs {
			if pairs[i].app == c.key.App && pairs[i].kind == c.key.Kind {
				c.pair = i
				break
			}
		}
		if c.pair >= 0 {
			continue
		}
		if len(pairs) < cap(pairs) {
			pairs = pairs[:len(pairs)+1]
		} else {
			pairs = append(pairs, pairFold{})
		}
		c.pair = len(pairs) - 1
		pf := &pairs[c.pair]
		pf.app, pf.kind, pf.count, pf.compN = c.key.App, c.key.Kind, 0, 0
		pf.sum = classBuf(pf.sum, mx)
		pf.comp = classBuf(pf.comp, mx)
		clear(pf.sum)
		clear(pf.comp)
	}
	mx.pairs = pairs

	if mx.p.JobExchange && withDelta > 1 {
		for _, c := range mx.cols {
			if !c.hasDelta {
				continue
			}
			pf := &pairs[c.pair]
			for k, v := range c.delta {
				pf.sum[k] += v
			}
			pf.count++
		}
		for _, c := range mx.cols {
			if !c.hasDelta {
				continue
			}
			pf := &pairs[c.pair]
			n := float64(pf.count)
			for k := range c.delta {
				c.delta[k] = pf.sum[k] / n
			}
		}
	}

	if mx.p.NegativeFeedback {
		// Eq. 6: competitors' rewards on a machine push a colony away from
		// it. Only colonies with *different* resource demands (different
		// app) of the same task kind compete — same-app colonies are the
		// "homogeneous jobs" the job-level exchange pools, not rivals.
		for i := range pairs {
			pf := &pairs[i]
			for _, oc := range mx.cols {
				if !oc.hasDelta || oc.key.Kind != pf.kind || oc.key.App == pf.app {
					continue
				}
				for k, v := range oc.delta {
					pf.comp[k] += v
				}
				pf.compN++
			}
		}
	}
}

// updateRow applies Eq. 4 to c's row once per class — a down class only
// evaporates — then rescales the row to mean 1 and writes each class value
// into its members' entries. The mean sums the class values over machines
// in ID order, the order a per-machine row sum adds them in.
func (mx *Matrix) updateRow(c *colony, down func(int) bool) {
	rho, lo, hi := mx.p.Rho, mx.p.MinTau, mx.p.MaxTau
	var comp []float64
	compN := 0
	if mx.p.NegativeFeedback && c.hasDelta {
		pf := &mx.pairs[c.pair]
		comp, compN = pf.comp, pf.compN
	}
	row, val := c.row, mx.classVal
	for k, m := range mx.classRep {
		if down(m) {
			// Crashed machine: pure evaporation toward the floor.
			val[k] = clamp((1-rho)*row[m], lo, hi)
			continue
		}
		dep := 0.0
		if c.hasDelta {
			dep = c.delta[k]
		}
		// Exact comparison: 0 is the "no deposit" sentinel assigned above,
		// never the result of accumulation.
		if compN > 0 && dep != 0 {
			// The penalty is the mean competitor reward scaled by
			// NegativeScale, applied only where this colony had its own
			// experience (dep != 0) so idle paths are not dragged below
			// the floor.
			dep -= mx.p.NegativeScale * comp[k] / float64(compN)
		}
		v := (1-rho)*row[m] + rho*dep
		val[k] = clamp(v, lo, hi)
	}

	var sum float64
	for _, k := range mx.classOf {
		sum += val[k]
	}
	if mean := sum / float64(mx.machines); mean > 0 {
		for k, v := range val {
			val[k] = clamp(v/mean, lo, hi)
		}
	}
	for m, k := range mx.classOf {
		row[m] = val[k]
	}
}

// RouletteSelect draws index i with probability weights[i]/Σweights,
// restricted to available indices (available may be nil: every index is
// eligible). Non-positive and non-finite weights count as zero. When every
// eligible weight is zero the draw is uniform over the eligible indices,
// which keeps the assigner alive when pheromones collapse; an unavailable
// (crashed) index is never returned. It panics on an empty slice, on a
// length mismatch, and when no index is available at all.
//
// With available == nil and finite weights this consumes exactly the same
// RNG draws and returns exactly the same index as sim.RNG.Roulette, so the
// E-Ant assignment stream is unchanged on a healthy cluster.
func RouletteSelect(rng *sim.RNG, weights []float64, available []bool) int {
	if len(weights) == 0 {
		panic("core: RouletteSelect over empty weights")
	}
	if available != nil && len(available) != len(weights) {
		panic(fmt.Sprintf("core: RouletteSelect with %d weights but %d availability flags", len(weights), len(available)))
	}
	eligible := func(i int) bool { return available == nil || available[i] }
	eff := func(i int) float64 {
		w := weights[i]
		if !eligible(i) || w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return 0
		}
		return w
	}

	var total float64
	for i := range weights {
		total += eff(i)
	}
	if total > 0 {
		x := rng.Float64() * total
		last := -1
		for i := range weights {
			w := eff(i)
			if w <= 0 {
				continue
			}
			last = i
			x -= w
			if x < 0 {
				return i
			}
		}
		// Float drift can leave x at ~0 after the walk. sim.RNG.Roulette
		// returns the final index here; with availability in play the
		// final index may be crashed, so the last eligible positive-weight
		// index absorbs the drift instead.
		if available == nil {
			return len(weights) - 1
		}
		return last
	}

	// Degenerate case: uniform over the eligible indices.
	if available == nil {
		return rng.Intn(len(weights))
	}
	n := 0
	for i := range available {
		if available[i] {
			n++
		}
	}
	if n == 0 {
		panic("core: RouletteSelect with no available index")
	}
	k := rng.Intn(n)
	for i := range available {
		if !available[i] {
			continue
		}
		if k == 0 {
			return i
		}
		k--
	}
	panic("unreachable")
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
