package core

import (
	"math"
	"testing"

	"eant/internal/mapreduce"
	"eant/internal/sim"
	"eant/internal/workload"
)

// denseUpdate is the per-machine pheromone update that Matrix.Update
// replaced, kept verbatim as its oracle: every stage evaluates every
// (colony, machine) cell. It uses mx only for its colony table and
// parameters, and each colony's delta/count as machine-sized scratch, so it
// must run on a matrix whose Update is never called.
func denseUpdate(mx *Matrix, typeGroups [][]int, unavailable []bool) {
	down := func(id int) bool {
		return unavailable != nil && id < len(unavailable) && unavailable[id]
	}

	// Stage 1: raw per-path rewards.
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

	// Stage 2: machine-level exchange.
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

	// Stage 3: job-level exchange.
	type exchGroup struct {
		app   workload.App
		kind  mapreduce.TaskKind
		sum   []float64
		count int
	}
	if mx.p.JobExchange {
		withDelta := 0
		for _, c := range mx.cols {
			if c.hasDelta {
				withDelta++
			}
		}
		if withDelta > 1 {
			var groups []exchGroup
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
					groups = append(groups, exchGroup{app: c.key.App, kind: c.key.Kind, sum: make([]float64, mx.machines)})
					gi = len(groups) - 1
				}
				g := &groups[gi]
				for i, v := range c.delta {
					g.sum[i] += v
				}
				g.count++
			}
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
				row[m] = clamp((1-mx.p.Rho)*row[m], mx.p.MinTau, mx.p.MaxTau)
				continue
			}
			dep := 0.0
			if c.hasDelta {
				dep = c.delta[m]
			}
			if mx.p.NegativeFeedback && dep != 0 {
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

// randTrailParams draws the update-relevant parameters: each exchange, Eq. 6
// and SumDeposits on or off, and Gamma, Rho and NegativeScale from the
// ranges the oracle covers.
func randTrailParams(rng *sim.RNG) Params {
	p := DefaultParams()
	p.MachineExchange = rng.Bernoulli(0.5)
	p.JobExchange = rng.Bernoulli(0.5)
	p.NegativeFeedback = rng.Bernoulli(0.5)
	p.SumDeposits = rng.Bernoulli(0.5)
	p.Gamma = []float64{0.5, 1, 1.5, 4}[rng.Intn(4)]
	p.Rho = []float64{0.1, 0.5, 0.9, 1}[rng.Intn(4)]
	p.NegativeScale = rng.Float64()
	return p
}

// FuzzTrailClassUpdate runs identical operation sequences on two matrices,
// one updated per trail class (Matrix.Update) and one per machine
// (denseUpdate), over generated fleets, groups, parameters and
// availability masks, and requires every row to match bit for bit after
// every tick and to be constant on every trail class.
func FuzzTrailClassUpdate(f *testing.F) {
	for _, seed := range []int64{1, 7, 11, -3, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := sim.NewRNG(seed)
		machines := 1 + rng.Intn(64)
		// Disjoint groups in shuffled member order, covering a random
		// subset of the fleet; some may be empty.
		groups := make([][]int, 1+rng.Intn(6))
		for _, id := range rng.Perm(machines) {
			if g := rng.Intn(len(groups) + 1); g < len(groups) {
				groups[g] = append(groups[g], id)
			}
		}
		p := randTrailParams(rng)
		got, err := NewMatrix(machines, groups, p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := NewMatrix(machines, groups, p)
		if err != nil {
			t.Fatal(err)
		}

		apps := workload.Apps()
		kinds := []mapreduce.TaskKind{mapreduce.MapTask, mapreduce.ReduceTask}
		unavailable := make([]bool, machines)
		clearAt := 1 + rng.Intn(38)
		for tick := 0; tick < 40; tick++ {
			if tick == clearAt {
				p = randTrailParams(rng)
				if err := got.Clear(p); err != nil {
					t.Fatal(err)
				}
				if err := want.Clear(p); err != nil {
					t.Fatal(err)
				}
			}
			for op, ops := 0, rng.Intn(24); op < ops; op++ {
				job := rng.Intn(10)
				key := ColonyKey{JobID: job, App: apps[job%len(apps)], Kind: kinds[rng.Intn(2)]}
				switch r := rng.Float64(); {
				case r < 0.15: // a colony forms without feedback
					keyed(got, key)
					keyed(want, key)
				case r < 0.9:
					m := rng.Intn(machines)
					joules := rng.Uniform(1, 5000)
					if rng.Bernoulli(0.05) {
						joules = -rng.Float64() // floored to a tiny positive energy
					}
					got.feedback(keyed(got, key), m, joules)
					want.feedback(keyed(want, key), m, joules)
				default:
					retireJob(got, job)
					retireJob(want, job)
				}
			}
			for m := range unavailable {
				if rng.Bernoulli(0.04) {
					unavailable[m] = !unavailable[m]
				}
			}
			mask := unavailable
			if rng.Bernoulli(0.3) {
				mask = nil // every machine up this tick
			}
			got.Update(mask)
			denseUpdate(want, groups, mask)

			if len(got.cols) != len(want.cols) {
				t.Fatalf("tick %d: %d colonies, want %d", tick, len(got.cols), len(want.cols))
			}
			for i, c := range got.cols {
				k := c.key
				if k != want.cols[i].key {
					t.Fatalf("tick %d: colony %d is %+v, want %+v", tick, i, k, want.cols[i].key)
				}
				g, w := c.row, want.cols[i].row
				for m := range g {
					if math.Float64bits(g[m]) != math.Float64bits(w[m]) {
						t.Fatalf("tick %d, colony %+v, machine %d: trail %v, want %v (params %+v, groups %v)",
							tick, k, m, g[m], w[m], p, groups)
					}
					rep := got.classRep[got.classOf[m]]
					if math.Float64bits(g[m]) != math.Float64bits(g[rep]) {
						t.Fatalf("tick %d, colony %+v: machine %d trail %v differs from its class representative %d's %v",
							tick, k, m, g[m], rep, g[rep])
					}
				}
			}
		}
	})
}

// TestPowEtaMemo pins the offer path's memoized η^β to math.Pow bit for
// bit across η changes, and across a β change through Clear, which
// recycles the colony with its memo zeroed.
func TestPowEtaMemo(t *testing.T) {
	p := DefaultParams()
	mx := mustMatrix(t, 2, p)
	k := mapColony(1, workload.Grep)
	c := keyed(mx, k)
	for _, eta := range []float64{1, 1, 0.37, 0.37, 10, 1.0 / 3, 1, 2.5, 2.5} {
		if got, want := c.powEta(eta, p.Beta), math.Pow(eta, p.Beta); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("powEta(%v, %v) = %v, want %v", eta, p.Beta, got, want)
		}
	}
	p.Beta = 0.7
	if err := mx.Clear(p); err != nil {
		t.Fatal(err)
	}
	if c2 := keyed(mx, k); c2 != c {
		t.Fatal("Clear did not recycle the colony")
	}
	for _, eta := range []float64{2.5, 2.5, 1, 0.37} {
		if got, want := c.powEta(eta, p.Beta), math.Pow(eta, p.Beta); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("after β change: powEta(%v, %v) = %v, want %v", eta, p.Beta, got, want)
		}
	}
}
