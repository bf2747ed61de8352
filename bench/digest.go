package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"eant"
	"eant/internal/mapreduce"
	"eant/internal/parallel"
)

// defaultSeed is the seed whose cold references are pinned in
// testdata/expected.json.
const defaultSeed = 7

// digest fingerprints one simulated run: every field a warm, traced or
// probed rerun of the same spec must reproduce bit for bit.
type digest struct {
	JoulesBits    uint64
	Makespan      time.Duration
	TasksDone     int
	JobsCompleted int
	MapOffers     int
	ReduceOffers  int
	// TypeJoules sums one hash per (type, joules bits) pair, so the map's
	// iteration order cannot change it.
	TypeJoules uint64
}

// digestOf computes a run's digest without allocating, so the timed loop
// can check every unit without disturbing allocs_per_run.
func digestOf(s *mapreduce.Stats) digest {
	var types uint64
	for name, j := range s.TypeJoules {
		types += fnvUint64(fnvString(fnvOffset, name), math.Float64bits(j))
	}
	return digest{
		JoulesBits:    math.Float64bits(s.TotalJoules),
		Makespan:      s.Horizon,
		TasksDone:     s.TasksDone(),
		JobsCompleted: len(s.Jobs),
		MapOffers:     s.MapOffers,
		ReduceOffers:  s.ReduceOffers,
		TypeJoules:    types,
	}
}

// hash folds the digest into the hex string pinned in expected.json.
func (d digest) hash() string {
	h := fnvOffset
	for _, v := range []uint64{d.JoulesBits, uint64(d.Makespan), uint64(d.TasksDone), uint64(d.JobsCompleted),
		uint64(d.MapOffers), uint64(d.ReduceOffers), d.TypeJoules} {
		h = fnvUint64(h, v)
	}
	return fmt.Sprintf("%016x", h)
}

const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

func fnvUint64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (v & 0xff)) * fnvPrime
		v >>= 8
	}
	return h
}

// references runs every spec of every unit cold: eant.Run on a fresh clone
// of the fleet, no warm state. Timed units must reproduce these digests.
func references(wd *world) ([][]digest, error) {
	type ref struct{ unit, spec int }
	var flat []ref
	for i, specs := range wd.units {
		for k := range specs {
			flat = append(flat, ref{i, k})
		}
	}
	digests, err := parallel.Map(len(flat), workerCount(), func(n int) (digest, error) {
		spec := wd.units[flat[n].unit][flat[n].spec]
		spec.Cluster = wd.fleet.Clone()
		res, err := eant.Run(spec)
		if err != nil {
			return digest{}, fmt.Errorf("cold reference of unit %d spec %d: %w", flat[n].unit, flat[n].spec, err)
		}
		return digestOf(res.Stats), nil
	})
	if err != nil {
		return nil, err
	}
	refs := make([][]digest, len(wd.units))
	for n, r := range flat {
		refs[r.unit] = append(refs[r.unit], digests[n])
	}
	return refs, nil
}

// expectedFile is testdata/expected.json: the cold-reference hashes of
// every workload's full pool at defaultSeed, in unit then spec order.
type expectedFile struct {
	Seed      int64               `json:"seed"`
	Workloads map[string][]string `json:"workloads"`
}

//go:embed testdata/expected.json
var expectedJSON []byte

// checkExpected compares the cold references of a defaultSeed run against
// the pinned hashes. refs may cover a prefix of the pool.
func checkExpected(name string, refs [][]digest) error {
	var exp expectedFile
	if err := json.Unmarshal(expectedJSON, &exp); err != nil {
		return fmt.Errorf("reading expected.json: %w", err)
	}
	if exp.Seed != defaultSeed {
		return fmt.Errorf("expected.json pins seed %d, not %d", exp.Seed, defaultSeed)
	}
	want := exp.Workloads[name]
	n := 0
	for i, unit := range refs {
		for k, d := range unit {
			if n >= len(want) {
				return fmt.Errorf("expected.json holds %d hashes for %s, the run has more", len(want), name)
			}
			if got := d.hash(); got != want[n] {
				return fmt.Errorf("%s unit %d spec %d: cold reference %s, expected.json pins %s", name, i, k, got, want[n])
			}
			n++
		}
	}
	return nil
}
