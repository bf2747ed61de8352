package core

import (
	"fmt"
	"math"

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

	// delta/count are Update scratch: per-machine deposit and feedback
	// count for the current interval. Valid only while hasDelta is set.
	delta    []float64
	count    []int
	hasDelta bool

	// idx is the colony's per-control-interval host index (E-Ant's decline
	// guard): trails only change at the control tick, so the trail-ranked
	// machine view is rebuilt at most once per colony per interval. Owned
	// and stamped by EAnt (see eant.go); buffers are reused across rebuilds.
	idx *hostIndex
}

// Matrix holds pheromone trails per colony over the machine set and folds
// in per-interval energy feedback according to Eqs. 4–6 and the §IV-D
// exchange strategies.
//
// Colonies live in a flat, insertion-ordered table with a key index on
// the side. The scheduler's inner loops (one Tau lookup per candidate per
// slot offer, one per machine in the decline guard) hit the flat rows
// instead of hashing a struct key per probe, and every cross-colony fold
// in Update iterates the table in insertion order — float accumulation
// order is fixed, so runs are bit-for-bit reproducible instead of
// depending on Go's randomized map iteration.
type Matrix struct {
	p        Params
	machines int
	index    map[ColonyKey]int
	cols     []*colony

	// pool recycles retired colonies (their row/pending/delta/count/idx
	// buffers) so a warm rerun of the same workload allocates no new colony
	// state. Acquisition re-initializes every reused field, so a pooled
	// colony is observationally identical to a fresh one.
	pool []*colony

	// exchScratch is the job-level exchange fold's reusable accumulator:
	// one entry per (app, kind) group, rebuilt from length zero every
	// update tick. Group cardinality is tiny (apps × two task kinds), so
	// entries are found by linear scan — no per-tick map, no per-tick
	// group-sum slices once the scratch has warmed.
	exchScratch []exchGroup
}

// exchGroup accumulates one (app, kind) group's deposit sums during the
// job-level exchange stage of an update tick.
type exchGroup struct {
	app   workload.App
	kind  mapreduce.TaskKind
	sum   []float64
	count int
}

// NewMatrix returns an empty pheromone matrix over the given machine count.
func NewMatrix(machines int, p Params) (*Matrix, error) {
	if machines <= 0 {
		return nil, fmt.Errorf("core: matrix over %d machines", machines)
	}
	mx := &Matrix{machines: machines, index: make(map[ColonyKey]int)}
	if err := mx.Clear(p); err != nil {
		return nil, err
	}
	return mx, nil
}

// Colonies returns the number of tracked colonies.
func (mx *Matrix) Colonies() int { return len(mx.cols) }

// Keys returns the tracked colony keys in insertion order.
func (mx *Matrix) Keys() []ColonyKey {
	out := make([]ColonyKey, len(mx.cols))
	for i, c := range mx.cols {
		out[i] = c.key
	}
	return out
}

// colonyFor returns the colony's state, creating it on first touch. A new
// colony warm-starts from existing same-(app, kind) colonies when
// job-level exchange is enabled — the sharing of experience that makes
// small-job convergence fast (Fig. 11b).
func (mx *Matrix) colonyFor(key ColonyKey) *colony {
	if i, ok := mx.index[key]; ok {
		return mx.cols[i]
	}
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
	mx.index[key] = len(mx.cols)
	mx.cols = append(mx.cols, c)
	return c
}

// row returns the colony's live pheromone vector (shared, not a copy),
// creating the colony on first touch.
func (mx *Matrix) row(key ColonyKey) []float64 {
	return mx.colonyFor(key).row
}

// Tau returns τ(colony, machine).
func (mx *Matrix) Tau(key ColonyKey, machineID int) float64 {
	return mx.row(key)[machineID]
}

// Row returns a copy of the colony's pheromone vector.
func (mx *Matrix) Row(key ColonyKey) []float64 {
	out := make([]float64, mx.machines)
	copy(out, mx.row(key))
	return out
}

// MaxTau returns the colony's strongest trail.
func (mx *Matrix) MaxTau(key ColonyKey) float64 {
	maxV := 0.0
	for _, v := range mx.row(key) {
		if v > maxV {
			maxV = v
		}
	}
	return maxV
}

// Feedback records one completed task's estimated energy, to be folded in
// at the next Update.
func (mx *Matrix) Feedback(key ColonyKey, machineID int, joules float64) {
	if machineID < 0 || machineID >= mx.machines {
		panic(fmt.Sprintf("core: feedback for machine %d of %d", machineID, mx.machines))
	}
	if joules <= 0 {
		// Zero-energy tasks would produce infinite rewards; floor them.
		joules = 1e-9
	}
	c := mx.colonyFor(key)
	c.pending = append(c.pending, reward{machineID: machineID, joules: joules})
}

// PendingFeedback returns the number of unapplied task rewards.
func (mx *Matrix) PendingFeedback() int {
	n := 0
	for _, c := range mx.cols {
		n += len(c.pending)
	}
	return n
}

// Retire drops colonies whose job has left the system.
func (mx *Matrix) Retire(jobID int) {
	mx.retire(func(k ColonyKey) bool { return k.JobID == jobID })
}

// RetireInactive drops every colony whose job fails the liveness check,
// in one pass over the table.
func (mx *Matrix) RetireInactive(active func(jobID int) bool) {
	mx.retire(func(k ColonyKey) bool { return !active(k.JobID) })
}

// retire compacts the colony table, dropping entries matching gone.
// Dropped colonies move to the recycling pool.
func (mx *Matrix) retire(gone func(ColonyKey) bool) {
	kept := mx.cols[:0]
	for _, c := range mx.cols {
		if gone(c.key) {
			delete(mx.index, c.key)
			mx.pool = append(mx.pool, c)
			continue
		}
		mx.index[c.key] = len(kept)
		kept = append(kept, c)
	}
	for i := len(kept); i < len(mx.cols); i++ {
		mx.cols[i] = nil
	}
	mx.cols = kept
}

// Clear retires every colony into the recycling pool and adopts the given
// parameters, keeping every allocated buffer; NewMatrix is Clear on an
// empty matrix. p must validate.
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
	clear(mx.index)
	return nil
}

// Update folds the interval's feedback into the trails:
//
//  1. Raw rewards per path (Eq. 5): Δτ(j,m) = Σ_tasks avgE_j / E_task,
//     where avgE_j is the mean energy of the colony's completed tasks.
//  2. Machine-level exchange (§IV-D): Δτ averaged across each homogeneous
//     machine group (typeGroups) that produced any feedback.
//  3. Job-level exchange (§IV-D): Δτ averaged across colonies of the same
//     (app, kind).
//  4. Negative feedback (Eq. 6): competing colonies are penalized on the
//     machines where this colony was rewarded.
//  5. Evaporation and deposit (Eq. 4): τ ← (1−ρ)τ + ρΔ, clamped, then the
//     row is rescaled to mean 1 (assignment probabilities are
//     scale-invariant; rescaling keeps trails inside the clamp range).
//
// typeGroups lists machine IDs per homogeneous hardware group.
func (mx *Matrix) Update(typeGroups [][]int) {
	mx.UpdateWithAvailability(typeGroups, nil)
}

// UpdateWithAvailability is Update with machine availability (fault
// injection): a machine with unavailable[id] set receives no deposit, no
// share of the exchange averages and no negative feedback — its trails only
// evaporate toward the floor, so every colony gradually forgets a crashed
// machine until it recovers and produces fresh feedback. Rewards already
// recorded for tasks that completed on a since-crashed machine are dropped.
// A nil unavailable slice means every machine is up and reproduces Update
// exactly.
func (mx *Matrix) UpdateWithAvailability(typeGroups [][]int, unavailable []bool) {
	down := func(id int) bool {
		return unavailable != nil && id < len(unavailable) && unavailable[id]
	}

	// Stage 1: raw per-path rewards. With SumDeposits the deposit is the
	// literal Eq. 4/5 sum Σ_n avgE/E_n, which also encodes completion
	// counts; the default averages the per-task experiences and sharpens
	// the ratio with Gamma, so trails read as pure relative energy
	// efficiency.
	for _, c := range mx.cols {
		if len(c.pending) == 0 {
			c.hasDelta = false
			continue
		}
		var sum float64
		for _, r := range c.pending {
			sum += r.joules
		}
		avg := sum / float64(len(c.pending))
		if c.delta == nil {
			c.delta = make([]float64, mx.machines)
			c.count = make([]int, mx.machines)
		} else {
			for i := range c.delta {
				c.delta[i] = 0
				c.count[i] = 0
			}
		}
		for _, r := range c.pending {
			if down(r.machineID) {
				continue
			}
			c.delta[r.machineID] += avg / r.joules
			c.count[r.machineID]++
		}
		c.hasDelta = true
	}

	// Stage 2: machine-level exchange — pool experiences across each
	// homogeneous hardware group ("the average available experiences of
	// the completed tasks that visited those homogeneous machines").
	if mx.p.MachineExchange {
		for _, c := range mx.cols {
			if !c.hasDelta {
				continue
			}
			d, n := c.delta, c.count
			for _, group := range typeGroups {
				var sum float64
				tasks := 0
				members := 0
				for _, id := range group {
					sum += d[id]
					tasks += n[id]
					if n[id] > 0 {
						members++
					}
				}
				if tasks == 0 {
					continue
				}
				for _, id := range group {
					if down(id) {
						continue
					}
					if mx.p.SumDeposits {
						// Average the per-machine sums over members
						// that produced feedback.
						d[id] = sum / float64(members)
						n[id] = tasks / members
					} else {
						d[id] = sum
						n[id] = tasks
					}
				}
			}
		}
	}

	// Reduce sums to mean-experience deposits unless running the literal
	// Eq. 4/5 sum form, and apply the sharpening exponent.
	if !mx.p.SumDeposits {
		for _, c := range mx.cols {
			if !c.hasDelta {
				continue
			}
			for i := range c.delta {
				if c.count[i] > 0 {
					c.delta[i] = math.Pow(c.delta[i]/float64(c.count[i]), mx.p.Gamma)
				}
			}
		}
	}

	// Stage 3: job-level exchange. Group sums accumulate in table
	// (insertion) order, so the float folds are deterministic. Scratch
	// entries (and their sum slices) are reused across ticks: the group
	// cardinality is apps × kinds, so the linear scans stay cheap and the
	// steady state allocates nothing.
	if mx.p.JobExchange {
		withDelta := 0
		for _, c := range mx.cols {
			if c.hasDelta {
				withDelta++
			}
		}
		if withDelta > 1 {
			groups := mx.exchScratch[:0]
			for _, c := range mx.cols {
				if !c.hasDelta {
					continue
				}
				gi := -1
				for i := range groups {
					if groups[i].app == c.key.App && groups[i].kind == c.key.Kind {
						gi = i
						break
					}
				}
				if gi == -1 {
					if len(groups) < cap(groups) {
						groups = groups[:len(groups)+1]
					} else {
						groups = append(groups, exchGroup{})
					}
					gi = len(groups) - 1
					g := &groups[gi]
					g.app, g.kind, g.count = c.key.App, c.key.Kind, 0
					if len(g.sum) != mx.machines {
						g.sum = nil
					}
					if g.sum == nil {
						g.sum = make([]float64, mx.machines)
					} else {
						for i := range g.sum {
							g.sum[i] = 0
						}
					}
				}
				g := &groups[gi]
				for i, v := range c.delta {
					g.sum[i] += v
				}
				g.count++
			}
			mx.exchScratch = groups
			for _, c := range mx.cols {
				if !c.hasDelta {
					continue
				}
				var g *exchGroup
				for i := range groups {
					if groups[i].app == c.key.App && groups[i].kind == c.key.Kind {
						g = &groups[i]
						break
					}
				}
				n := float64(g.count)
				for i := range c.delta {
					c.delta[i] = g.sum[i] / n
				}
			}
		}
	}

	// Stage 4+5: per-colony evaporation, deposit, negative feedback.
	for _, c := range mx.cols {
		row := c.row
		for m := 0; m < mx.machines; m++ {
			if down(m) {
				// Crashed machine: pure evaporation toward the floor.
				row[m] = clamp((1-mx.p.Rho)*row[m], mx.p.MinTau, mx.p.MaxTau)
				continue
			}
			dep := 0.0
			if c.hasDelta {
				dep = c.delta[m]
			}
			//eant:float-eq-ok 0 is an exact "no deposit" sentinel assigned above, never the result of accumulation
			if mx.p.NegativeFeedback && dep != 0 {
				// Eq. 6: competitors' rewards on this machine push this
				// colony away from it. Only colonies with *different*
				// resource demands (different app) compete — same-app
				// colonies are the "homogeneous jobs" the job-level
				// exchange pools, not rivals. The penalty is the mean
				// competitor reward scaled by NegativeScale, applied only
				// where this colony had its own experience (dep != 0) so
				// idle paths are not dragged below the floor.
				var competitor float64
				n := 0
				for _, oc := range mx.cols {
					if !oc.hasDelta || oc.key.Kind != c.key.Kind || oc.key.App == c.key.App {
						continue
					}
					competitor += oc.delta[m]
					n++
				}
				if n > 0 {
					dep -= mx.p.NegativeScale * competitor / float64(n)
				}
			}
			v := (1-mx.p.Rho)*row[m] + mx.p.Rho*dep
			row[m] = clamp(v, mx.p.MinTau, mx.p.MaxTau)
		}
		normalizeMean(row, mx.p.MinTau, mx.p.MaxTau)
	}

	for _, c := range mx.cols {
		c.pending = c.pending[:0]
		c.hasDelta = false
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

// SelectionProbabilities returns the distribution RouletteSelect draws
// from: p[i] = eff(i)/Σeff with the same zeroing of non-positive,
// non-finite and unavailable weights, falling back to uniform over the
// eligible indices when every effective weight is zero. The result always
// sums to 1 (within float tolerance) and contains no NaN or Inf; it is nil
// when no index is eligible.
func SelectionProbabilities(weights []float64, available []bool) []float64 {
	if len(weights) == 0 {
		return nil
	}
	if available != nil && len(available) != len(weights) {
		return nil
	}
	p := make([]float64, len(weights))
	var total float64
	eligibleCount := 0
	for i, w := range weights {
		if available != nil && !available[i] {
			continue
		}
		eligibleCount++
		if w > 0 && !math.IsInf(w, 0) && !math.IsNaN(w) {
			p[i] = w
			total += w
		}
	}
	if eligibleCount == 0 {
		return nil
	}
	if total <= 0 {
		u := 1 / float64(eligibleCount)
		for i := range p {
			if available == nil || available[i] {
				p[i] = u
			}
		}
		return p
	}
	if math.IsInf(total, 1) {
		// Σw overflows: the roulette walk's cursor is +Inf (or NaN) and
		// never goes negative, so every draw falls through to the last
		// index (nil mask) or the last eligible positive-weight index.
		last := len(p) - 1
		if available != nil {
			for i := range p {
				if p[i] > 0 {
					last = i
				}
			}
		}
		for i := range p {
			p[i] = 0
		}
		p[last] = 1
		return p
	}
	for i := range p {
		p[i] /= total
	}
	return p
}

// normalizeMean rescales row to mean 1, then re-clamps.
func normalizeMean(row []float64, lo, hi float64) {
	var sum float64
	for _, v := range row {
		sum += v
	}
	mean := sum / float64(len(row))
	if mean <= 0 {
		return
	}
	for i := range row {
		row[i] = clamp(row[i]/mean, lo, hi)
	}
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

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
