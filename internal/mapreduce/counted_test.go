package mapreduce_test

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"eant/internal/cluster"
	"eant/internal/core"
	"eant/internal/fault"
	"eant/internal/mapreduce"
	"eant/internal/noise"
	"eant/internal/probe"
	"eant/internal/sched"
	"eant/internal/sim"
	"eant/internal/workload"
)

// walked forwards only the Scheduler methods of the policy it wraps, as a
// tracing wrapper does. That hides the policy's QuietWhenIdle marker, so
// the driver calls the policy for every free slot.
type walked struct{ mapreduce.Scheduler }

// walkedObserver is walked for a policy that is also a SlotObserver.
type walkedObserver struct {
	mapreduce.Scheduler
	mapreduce.SlotObserver
}

// hideQuiet wraps s so that the driver walks every offer.
func hideQuiet(s mapreduce.Scheduler) mapreduce.Scheduler {
	if obs, ok := s.(mapreduce.SlotObserver); ok {
		return walkedObserver{s, obs}
	}
	return walked{s}
}

// quietPolicy names a constructor of a fresh QuietWhenIdle policy.
type quietPolicy struct {
	name  string
	build func() mapreduce.Scheduler
}

// seedIndex returns, as a fuzz input byte, the index of the entry of list
// that nameOf calls name, and fails the corpus build when none is: a seed
// that names its policy or variant keeps it when the list is reordered,
// and a deleted one is reported instead of silently picking another.
func seedIndex[T any](f *testing.F, list []T, nameOf func(T) string, name string) uint8 {
	f.Helper()
	i := slices.IndexFunc(list, func(x T) bool { return nameOf(x) == name })
	if i < 0 {
		f.Fatalf("no %q to seed the corpus with", name)
	}
	return uint8(i)
}

func policyName(p quietPolicy) string { return p.name }

func quietPolicies() []quietPolicy {
	return []quietPolicy{
		{"FIFO", func() mapreduce.Scheduler { return sched.NewFIFO() }},
		{"Fair", func() mapreduce.Scheduler { return sched.NewFair() }},
		{"Tarazu", func() mapreduce.Scheduler { return sched.NewTarazu() }},
		{"E-Ant", func() mapreduce.Scheduler { return core.MustNewEAnt(core.DefaultParams()) }},
	}
}

// paperMix returns the §V-B testbed's 8:3:2:1:1:1 hardware mix scaled by
// factor: 16·factor machines.
func paperMix(factor int) *cluster.Cluster {
	return cluster.MustNew(
		cluster.Group{Spec: cluster.SpecDesktop, Count: 8 * factor},
		cluster.Group{Spec: cluster.SpecT110, Count: 3 * factor},
		cluster.Group{Spec: cluster.SpecT420, Count: 2 * factor},
		cluster.Group{Spec: cluster.SpecT320, Count: factor},
		cluster.Group{Spec: cluster.SpecT620, Count: factor},
		cluster.Group{Spec: cluster.SpecAtom, Count: factor},
	)
}

// variant is a fault and consolidation setting the counted sweep must
// match the walk under.
type variant struct {
	name string
	set  func(*mapreduce.Config)
}

// churnFaults is the churn benchmark workload's fault setting.
var churnFaults = fault.Config{
	MachineMTBF:        2 * time.Hour,
	MachineMTTR:        2 * time.Minute,
	TaskFailProb:       0.02,
	BlacklistThreshold: 3,
}

// variants lists plain runs first, then the fault and consolidation
// settings. The last two reach both ways a counted sweep can go wrong: a
// blacklist that outlasts the idle timeout puts benched machines to sleep
// (asleep, yet offered nothing), and jobs failed by their first attempt
// failure free slots without touching lastBusy (machines go idle out of
// lastBusy order).
func variants() []variant {
	return []variant{
		{"plain", func(*mapreduce.Config) {}},
		{"churn", func(c *mapreduce.Config) { c.Fault, c.Power.Enabled = churnFaults, true }},
		{"faults", func(c *mapreduce.Config) { c.Fault = churnFaults }},
		{"consolidation", func(c *mapreduce.Config) { c.Power.Enabled = true }},
		{"doomed jobs", func(c *mapreduce.Config) {
			c.Fault = fault.Config{TaskFailProb: 0.3, MaxAttempts: 1, BlacklistThreshold: 1, BlacklistCooldown: 20 * time.Second}
			c.Power.Enabled = true
		}},
		{"long blacklists", func(c *mapreduce.Config) {
			c.Fault = fault.Config{MachineMTBF: 30 * time.Minute, MachineMTTR: 2 * time.Minute, TaskFailProb: 0.02,
				BlacklistThreshold: 1, BlacklistCooldown: 5 * time.Minute}
			c.Power.Enabled = true
		}},
	}
}

// msdJobs draws n MSD jobs at 1/64 scale with 45 s mean inter-arrival.
func msdJobs(tb testing.TB, n int, seed int64) []workload.JobSpec {
	tb.Helper()
	jobs, err := workload.GenerateMSD(workload.MSDConfig{
		Jobs:             n,
		Scale:            64,
		MeanInterarrival: 45 * time.Second,
	}, sim.NewRNG(seed))
	if err != nil {
		tb.Fatal(err)
	}
	return jobs
}

// newDriver returns a driver over c for countedAndWalked. A checked driver
// recomputes and compares its aggregates after every mutating event.
func newDriver(tb testing.TB, c *cluster.Cluster, checked bool) *mapreduce.Driver {
	tb.Helper()
	d, err := mapreduce.NewDriver(c, sched.NewFIFO(), mapreduce.DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	if checked {
		d.EnableInvariantChecks(func(err error) { tb.Fatal(err) })
	}
	return d
}

// countedAndWalked runs jobs twice on the warm driver d, first with s
// itself (idle offers counted) and then with hideQuiet(s2) (every offer
// made), and returns both Stats. s and s2 are fresh instances of one
// policy.
func countedAndWalked(tb testing.TB, d *mapreduce.Driver, s, s2 mapreduce.Scheduler,
	cfg mapreduce.Config, jobs []workload.JobSpec, horizon time.Duration) (counted, all *mapreduce.Stats) {
	tb.Helper()
	var out [2]*mapreduce.Stats
	for i, pol := range []mapreduce.Scheduler{s, hideQuiet(s2)} {
		if err := d.Reset(pol, cfg); err != nil {
			tb.Fatal(err)
		}
		if got, want := d.OffersCountable(), i == 0; got != want {
			tb.Fatalf("%s run %d: OffersCountable = %v, want %v", pol.Name(), i, got, want)
		}
		st, err := d.Run(jobs, horizon)
		if err != nil {
			tb.Fatal(err)
		}
		out[i] = st
	}
	return out[0], out[1]
}

// TestCountedOffersMatchWalked checks the counted idle-offer path against
// the walk it replaces: for every QuietWhenIdle policy, the Stats of a
// counted run must deep-equal those of the same run with every offer made
// (MapOffers and ReduceOffers included). Plain runs go on the paper's
// testbed and a 1024-machine fleet, the fault and consolidation variants on
// the testbed and a 256-machine fleet. Each fleet's runs share one warm
// driver, so every Reset must re-derive whether offers are countable and
// rebuild the sleep and expiry queues. The testbed's driver also checks its
// aggregates, host counts and queues included, after every event (on the
// wide fleets that recompute would dominate the suite).
func TestCountedOffersMatchWalked(t *testing.T) {
	all := variants()
	fleets := []struct {
		name     string
		c        *cluster.Cluster
		checked  bool
		jobs     int
		variants []variant
	}{
		{"testbed", cluster.Testbed(), true, 6, all},
		{"1024 machines", paperMix(64), false, 20, all[:1]},
		{"256 machines", paperMix(16), false, 20, all[1:]},
	}
	runs := []struct {
		seed    int64
		horizon time.Duration
	}{{1, -1}, {2, -1}, {3, -1}, {1, 10 * time.Minute}}
	for _, fl := range fleets {
		t.Run(fl.name, func(t *testing.T) {
			t.Parallel()
			d := newDriver(t, fl.c, fl.checked)
			for _, v := range fl.variants {
				for _, p := range quietPolicies() {
					for _, r := range runs {
						cfg := mapreduce.DefaultConfig()
						cfg.Seed = r.seed
						cfg.Noise = noise.Default()
						cfg.KeepTaskRecords = true
						v.set(&cfg)
						counted, walked := countedAndWalked(t, d, p.build(), p.build(), cfg, msdJobs(t, fl.jobs, r.seed), r.horizon)
						if walked.MapOffers == 0 {
							t.Fatalf("%s %s seed %d: walked run made no map offer", v.name, p.name, r.seed)
						}
						if !reflect.DeepEqual(counted, walked) {
							t.Errorf("%s %s seed %d horizon %v: counted Stats differ from walked (offers %s)",
								v.name, p.name, r.seed, r.horizon, offerDiff(counted, walked))
						}
					}
				}
			}
		})
	}
}

// TestOfferCountingEligibility pins when a driver may count idle offers:
// for every QuietWhenIdle policy under the default configuration, under
// consolidation and fault injection, and in none of the cases that force
// the walk (a probe, LATE, a wrapper hiding the marker). Each case is
// checked on a cold driver and on one warm driver that Reset brings to the
// case from a countable configuration and back.
func TestOfferCountingEligibility(t *testing.T) {
	pr, err := probe.New(probe.Config{})
	if err != nil {
		t.Fatal(err)
	}
	fair := func() mapreduce.Scheduler { return sched.NewFair() }
	type eligibilityCase struct {
		name  string
		sched func() mapreduce.Scheduler
		cfg   func(*mapreduce.Config)
		want  bool
	}
	var cases []eligibilityCase
	for _, p := range quietPolicies() {
		cases = append(cases, eligibilityCase{p.name, p.build, nil, true})
	}
	cases = append(cases,
		eligibilityCase{"probe", fair, func(c *mapreduce.Config) { c.Probe = pr }, false},
		eligibilityCase{"consolidation", fair, func(c *mapreduce.Config) { c.Power.Enabled = true }, true},
		eligibilityCase{"MachineMTBF alone", fair, func(c *mapreduce.Config) { c.Fault.MachineMTBF = time.Hour }, true},
		eligibilityCase{"TaskFailProb alone", fair, func(c *mapreduce.Config) { c.Fault.TaskFailProb = 0.01 }, true},
		eligibilityCase{"scripted scenario alone", fair, func(c *mapreduce.Config) {
			c.Fault.Scenario = []fault.Event{{At: time.Minute, Machine: 0, Kind: fault.Crash}}
		}, true},
		eligibilityCase{"LATE", func() mapreduce.Scheduler { return sched.NewLATE() }, nil, false},
		eligibilityCase{"wrapped Fair", func() mapreduce.Scheduler { return hideQuiet(sched.NewFair()) }, nil, false},
		eligibilityCase{"wrapped E-Ant", func() mapreduce.Scheduler { return hideQuiet(core.MustNewEAnt(core.DefaultParams())) }, nil, false},
	)
	warm, err := mapreduce.NewDriver(cluster.Testbed(), fair(), mapreduce.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := mapreduce.DefaultConfig()
			if tc.cfg != nil {
				tc.cfg(&cfg)
			}
			cold, err := mapreduce.NewDriver(cluster.Testbed(), tc.sched(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := cold.OffersCountable(); got != tc.want {
				t.Errorf("cold: OffersCountable = %v, want %v", got, tc.want)
			}
			if err := warm.Reset(tc.sched(), cfg); err != nil {
				t.Fatal(err)
			}
			if got := warm.OffersCountable(); got != tc.want {
				t.Errorf("warm: OffersCountable = %v, want %v", got, tc.want)
			}
			if err := warm.Reset(fair(), mapreduce.DefaultConfig()); err != nil {
				t.Fatal(err)
			}
			if !warm.OffersCountable() {
				t.Error("warm: not countable after Reset back to Fair with the default config")
			}
		})
	}
}

// FuzzIdleOfferCounting compares the counted and walked heartbeat paths on
// generated scenarios: a seed, a paper-mix fleet of 16 to 128 machines, a
// QuietWhenIdle policy, 1 to 40 MSD jobs and a variant (plain, churn's
// faults and consolidation, faults only, consolidation only, doomed jobs,
// long blacklists). Both runs must give deep-equal Stats. The driver runs
// unchecked: per-event aggregate recomputes cost more than an order of
// magnitude in executions per second, and TestCountedOffersMatchWalked
// covers them.
func FuzzIdleOfferCounting(f *testing.F) {
	policies, vars := quietPolicies(), variants()
	variantName := func(v variant) string { return v.name }
	// Each seed names its policy and variant; their bytes index
	// quietPolicies and variants.
	for _, s := range []struct {
		seed    int64
		factor  uint8
		policy  string
		jobs    uint8
		variant string
	}{
		{7, 0, "Fair", 11, "plain"},
		{11, 7, "E-Ant", 39, "plain"},
		{-3, 3, "Tarazu", 0, "plain"},
		{7, 1, "E-Ant", 29, "churn"},
		{5, 2, "Fair", 19, "faults"},
		{3, 1, "Tarazu", 19, "consolidation"},
		{9, 1, "E-Ant", 29, "doomed jobs"},
		{2, 3, "Fair", 29, "doomed jobs"},
		{4, 1, "E-Ant", 29, "long blacklists"},
		{8, 3, "FIFO", 39, "long blacklists"},
	} {
		f.Add(s.seed, s.factor, seedIndex(f, policies, policyName, s.policy), s.jobs, seedIndex(f, vars, variantName, s.variant))
	}
	f.Fuzz(func(t *testing.T, seed int64, factor, policy, jobs, variant uint8) {
		p := policies[int(policy)%len(policies)]
		v := vars[int(variant)%len(vars)]
		fleet := paperMix(1 + int(factor)%8)
		specs := msdJobs(t, 1+int(jobs)%40, seed)
		cfg := mapreduce.DefaultConfig()
		cfg.Seed = seed
		cfg.Noise = noise.Default()
		v.set(&cfg)
		counted, walked := countedAndWalked(t, newDriver(t, fleet, false), p.build(), p.build(), cfg, specs, -1)
		if !reflect.DeepEqual(counted, walked) {
			t.Errorf("%s %s on %d machines, %d jobs, seed %d: counted Stats differ from walked (offers %s)",
				v.name, p.name, fleet.Size(), len(specs), seed, offerDiff(counted, walked))
		}
	})
}

// offerDiff formats the two runs' offer counts.
func offerDiff(counted, all *mapreduce.Stats) string {
	return fmt.Sprintf("%d/%d counted, %d/%d walked", counted.MapOffers, counted.ReduceOffers, all.MapOffers, all.ReduceOffers)
}
