package core

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"eant/internal/cluster"
	"eant/internal/mapreduce"
	"eant/internal/sim"
	"eant/internal/workload"
)

// sortedHostIndex is the host index rankHosts replaced, kept verbatim as
// its oracle: the available machines sorted by trail descending, then by
// machine ID, with one comparator call per comparison.
func sortedHostIndex(machines []cluster.Machine, row []float64) *hostIndex {
	idx := &hostIndex{}
	if cap(idx.rankOf) < len(machines) {
		idx.rankOf = make([]int, len(machines))
	}
	idx.rankOf = idx.rankOf[:len(machines)]
	for i := range idx.rankOf {
		idx.rankOf[i] = -1
	}
	ids := idx.ids[:0]
	for _, m := range machines {
		if m.Available() {
			ids = append(ids, m.ID())
		}
	}
	slices.SortFunc(ids, func(a, b int) int {
		switch {
		case row[a] > row[b]:
			return -1
		case row[a] < row[b]:
			return 1
		}
		return cmp.Compare(a, b)
	})
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
		idx.rankOf[id] = rank
		slots += m.Spec().MapSlots
		idx.prefixSlots = append(idx.prefixSlots, slots)
		idx.freeBuckets[rank>>6] += m.FreeMapSlots()
	}
	return idx
}

// sameHostIndex reports the first field in which got differs from want,
// or "" when every ranked field is equal (trails bit for bit).
func sameHostIndex(got, want *hostIndex) string {
	switch {
	case !slices.Equal(got.ids, want.ids):
		return "ids"
	case !slices.EqualFunc(got.vals, want.vals, func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b)
	}):
		return "vals"
	case !slices.Equal(got.prefixSlots, want.prefixSlots):
		return "prefixSlots"
	case !slices.Equal(got.rankOf, want.rankOf):
		return "rankOf"
	case !slices.Equal(got.freeBuckets, want.freeBuckets):
		return "freeBuckets"
	}
	return ""
}

// Host-index fuzz modes: bits of the mode byte that force trail ties.
const (
	// tieClamp narrows the clamp range to [0.8, 1.25], so many classes
	// sit at MinTau or MaxTau.
	tieClamp = 1 << iota
	// tieNoExchange turns machine-level exchange off: one class per
	// machine, so every tie is between classes. Without it exchange is on,
	// and tied classes of several members interleave in machine ID.
	tieNoExchange
	// tieInitTau sends no feedback, so every up machine keeps the row's
	// common value (InitTau before the first update).
	tieInitTau
)

// FuzzHostIndex checks rankHosts, the trail-class ranking of E-Ant's host
// index, against the comparator sort it replaced (sortedHostIndex) on
// generated fleets of 1 to 150 machines (up to three 64-rank buckets):
// random catalog types, disjoint machine groups in shuffled member order,
// and update parameters. Over 30 ticks of colony creation, feedback,
// retirement, crashes, recoveries and map slots taken and freed, every
// colony's index is rebuilt in its retained buffers before and after each
// Update, and ids, vals, prefixSlots, rankOf and freeBuckets must equal
// the reference's exactly. The mode byte forces ties between classes:
// tight clamps, machine exchange off and feedback-free rows.
func FuzzHostIndex(f *testing.F) {
	for mode := range uint8(8) {
		for _, seed := range []int64{1, 7, 11} {
			f.Add(seed, mode)
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, mode uint8) {
		rng := sim.NewRNG(seed)
		specs := cluster.AllSpecs()
		var fleetGroups []cluster.Group
		for n := 1 + rng.Intn(150); n > 0; {
			count := min(n, 1+rng.Intn(40))
			fleetGroups = append(fleetGroups, cluster.Group{Spec: specs[rng.Intn(len(specs))], Count: count})
			n -= count
		}
		fleet := cluster.MustNew(fleetGroups...)
		machines := fleet.Machines()
		groups := make([][]int, 1+rng.Intn(6))
		for _, id := range rng.Perm(len(machines)) {
			if g := rng.Intn(len(groups) + 1); g < len(groups) {
				groups[g] = append(groups[g], id)
			}
		}
		p := randTrailParams(rng)
		if mode&tieClamp != 0 {
			p.MinTau, p.MaxTau = 0.8, 1.25
		}
		p.MachineExchange = mode&tieNoExchange == 0
		mx, err := NewMatrix(len(machines), groups, p)
		if err != nil {
			t.Fatal(err)
		}
		e := &EAnt{mx: mx}
		check := func(tick int, when string) {
			t.Helper()
			for _, c := range mx.cols {
				if c.idx == nil {
					c.idx = &hostIndex{}
				}
				e.rankHosts(c.idx, machines, c.row)
				if field := sameHostIndex(c.idx, sortedHostIndex(machines, c.row)); field != "" {
					t.Fatalf("tick %d %s, colony %+v, mode %#x: %s differ from the sorted index (classes %d, %d machines)",
						tick, when, c.key, mode, field, len(mx.classRep), len(machines))
				}
			}
		}

		apps := workload.Apps()
		kinds := []mapreduce.TaskKind{mapreduce.MapTask, mapreduce.ReduceTask}
		down := make([]bool, len(machines))
		for tick := 0; tick < 30; tick++ {
			for op, ops := 0, rng.Intn(24); op < ops; op++ {
				job := rng.Intn(10)
				key := ColonyKey{JobID: job, App: apps[job%len(apps)], Kind: kinds[rng.Intn(2)]}
				switch r := rng.Float64(); {
				case r < 0.15 || (r < 0.9 && mode&tieInitTau != 0): // a colony forms without feedback
					mx.colonyFor(key)
				case r < 0.9:
					mx.Feedback(key, rng.Intn(len(machines)), rng.Uniform(1, 5000))
				default:
					mx.Retire(job)
				}
			}
			for id, m := range machines {
				switch {
				case rng.Bernoulli(0.05) && m.Available():
					for m.RunningMap() > 0 {
						m.ReleaseMap(0)
					}
					m.Fail()
				case rng.Bernoulli(0.05) && !m.Available():
					m.Repair()
				case rng.Bernoulli(0.3) && m.RunningMap() > 0:
					m.ReleaseMap(0)
				case rng.Bernoulli(0.3):
					m.AcquireMap(0)
				}
				down[id] = !m.Available()
			}
			check(tick, "before Update")
			mx.Update(down)
			check(tick, "after Update")
		}
	})
}

// BenchmarkHostIndexBuild times one host-index build in retained buffers,
// on a 256-machine fleet of 49 trail classes with 8 machines down
// (churn-like: six hardware types, and 43 machines split off by crashes at
// nine different updates, so their trails differ by when they crashed) and
// on a healthy 1024-machine fleet of 6 classes (wide-eant-like). Each row
// has had nine updates of feedback from every machine.
func BenchmarkHostIndexBuild(b *testing.B) {
	for _, bc := range []struct {
		name         string
		factor, down int
		split        int
	}{
		{"machines=256/classes=49", 16, 8, 43},
		{"machines=1024/classes=6", 64, 0, 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			fleet := paperFleet(bc.factor)
			machines := fleet.Machines()
			var groups [][]int
			for _, name := range fleet.TypeNames() {
				var ids []int
				for _, m := range fleet.ByType(name) {
					ids = append(ids, m.ID())
				}
				groups = append(groups, ids)
			}
			mx, err := NewMatrix(len(machines), groups, DefaultParams())
			if err != nil {
				b.Fatal(err)
			}
			// Split machines off by marking each down for one update, a
			// ninth of them per update, then take the benchmark's machines
			// down for good.
			rng := sim.NewRNG(1)
			split := rng.Perm(len(machines))[:bc.split]
			k := ColonyKey{JobID: 1, App: workload.Grep, Kind: mapreduce.MapTask}
			down := make([]bool, len(machines))
			for tick := range 9 {
				for id := range machines {
					mx.Feedback(k, id, rng.Uniform(100, 5000))
				}
				clear(down)
				for i := tick; i < len(split); i += 9 {
					down[split[i]] = true
				}
				mx.Update(down)
			}
			if got := len(mx.classRep); got != 6+bc.split {
				b.Fatalf("%d classes, want %d", got, 6+bc.split)
			}
			for _, id := range rng.Perm(len(machines))[:bc.down] {
				machines[id].Fail()
			}
			for i, m := range machines {
				if m.Available() && i%3 == 0 {
					m.AcquireMap(0)
				}
			}
			c := mx.colonyFor(k)
			e := &EAnt{mx: mx}
			idx := &hostIndex{}
			e.rankHosts(idx, machines, c.row)
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				e.rankHosts(idx, machines, c.row)
			}
		})
	}
}

// paperFleet returns the §V-B testbed's 8:3:2:1:1:1 hardware mix scaled by
// factor: 16·factor machines.
func paperFleet(factor int) *cluster.Cluster {
	return cluster.MustNew(
		cluster.Group{Spec: cluster.SpecDesktop, Count: 8 * factor},
		cluster.Group{Spec: cluster.SpecT110, Count: 3 * factor},
		cluster.Group{Spec: cluster.SpecT420, Count: 2 * factor},
		cluster.Group{Spec: cluster.SpecT320, Count: factor},
		cluster.Group{Spec: cluster.SpecT620, Count: factor},
		cluster.Group{Spec: cluster.SpecAtom, Count: factor},
	)
}
