package mapreduce_test

import (
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
	"eant/internal/workload"
)

// configFields lists one variation per Config field. Bit i of a fuzz mask
// applies configFields[i] to the base configuration.
var configFields = []struct {
	name string
	vary func(*mapreduce.Config)
}{
	{"ControlInterval", func(c *mapreduce.Config) { c.ControlInterval = 45 * time.Second }},
	{"Noise", func(c *mapreduce.Config) { c.Noise = noise.Default() }},
	{"Seed", func(c *mapreduce.Config) { c.Seed++ }},
	{"KeepTaskRecords", func(c *mapreduce.Config) { c.KeepTaskRecords = true }},
	{"ForcedLocalFraction", func(c *mapreduce.Config) { c.ForcedLocalFraction = 0.5 }},
	{"Power", func(c *mapreduce.Config) {
		c.Power = mapreduce.PowerMgmt{Enabled: true, IdleTimeout: 10 * time.Second}
	}},
	{"Fault", func(c *mapreduce.Config) {
		c.Fault = fault.Config{MachineMTBF: time.Hour, TaskFailProb: 0.05, BlacklistThreshold: 2}
	}},
	{"Probe", func(c *mapreduce.Config) {
		c.Probe = probe.New(probe.Config{})
	}},
}

// resetConfig builds the configuration a fuzz mask selects: the default
// configuration with a 30 s control interval and the given seed, varied in
// the fields whose bits are set. Each call builds a fresh probe.
func resetConfig(mask uint16, seed int64) mapreduce.Config {
	cfg := mapreduce.DefaultConfig()
	cfg.ControlInterval = 30 * time.Second
	cfg.Seed = seed
	for i, f := range configFields {
		if mask&(1<<i) != 0 {
			f.vary(&cfg)
		}
	}
	return cfg
}

// resetPolicy returns a used policy to its pre-run state, as eant.Runner
// does between runs.
func resetPolicy(s mapreduce.Scheduler) {
	if e, ok := s.(*core.EAnt); ok {
		if err := e.ResetForRun(core.DefaultParams()); err != nil {
			panic(err)
		}
		return
	}
	s.(interface{ ResetForRun() }).ResetForRun()
}

// resetFleet builds a fleet of two distinct catalog types picked by types,
// with one to four machines of each picked by size.
func resetFleet(types, size uint8) *cluster.Cluster {
	specs := cluster.AllSpecs()
	a := int(types) % len(specs)
	b := (a + 1 + int(types/8)%(len(specs)-1)) % len(specs)
	return cluster.MustNew(
		cluster.Group{Spec: specs[a], Count: 1 + int(size)%4},
		cluster.Group{Spec: specs[b], Count: 1 + int(size/4)%4},
	)
}

// resetJobs derives n small jobs from an MSD draw: each keeps its app and
// arrival, with input capped at 16 blocks and at most four reduces.
func resetJobs(tb testing.TB, n int, seed int64) []workload.JobSpec {
	jobs := msdJobs(tb, n, seed)
	for i, j := range jobs {
		jobs[i] = workload.NewJobSpec(j.ID, j.App, min(j.InputMB, 16*workload.BlockMB), min(j.NumReduces, 4), j.Submit)
	}
	return jobs
}

// resetEnd decodes the fuzz byte that picks how the prior run ends and
// whether the compared runs are cut. end%3 is 0 for a run to completion, 1
// for a stop at the cut, 2 for a rejection mid-placement; bit 0 of end/3
// stops both compared runs at the same cut; end/6 sets the cut in 20 s
// steps from 20 s. A horizon of -1 runs to completion.
func resetEnd(end uint8) (prior, compared time.Duration, rejected bool) {
	cut := time.Duration(1+end/6) * 20 * time.Second
	prior, compared = -1, -1
	switch end % 3 {
	case 1:
		prior = cut
	case 2:
		rejected = true
	}
	if end/3%2 == 1 {
		compared = cut
	}
	return prior, compared, rejected
}

// FuzzResetEqualsNew is the measured contract of the driver's reset path
// and of the incremental aggregates every offer reads. A driver runs a
// prior mix under configuration A, is Reset to configuration B with its
// policy reset, and runs another mix, drawn from another seed with another
// job count; the Stats must deep-equal those of a new driver's run of the
// second mix under B on a fresh copy of the fleet. So the compared run is
// carved out of an arena that holds a larger or smaller old mix.
//
// Both drivers run under EnableInvariantChecks: after every mutating
// event the aggregates are recomputed from the machines and jobs, so a
// slot or availability change that bypasses the driver's bookkeeping,
// made by a policy or by the driver, fails the target at the next event.
// After the warm run the driver's configuration must still deep-equal the
// defaulted B it was Reset with, so a write to it during a run fails too.
//
// The prior run either completes, stops at a horizon (the reset then
// starts from running attempts, queued sleeps and live blacklists), or is
// rejected mid-placement by a duplicated job ID; the compared runs either
// complete or both stop at one shared horizon (resetEnd). An odd byte
// same gives the prior run the compared run's mix instead; the driver's
// namespace must then restore the prior run's placement exactly when the
// prior run placed its inputs and A and B agree in every placement input
// (Seed and Power). The seed corpus varies each Config field alone, in
// both directions, on fleets of six machines running four jobs after one,
// and again with the prior run on the compared mix, under two policies
// per field. It also runs each of the five policy setups twice with noise,
// consolidation and faults on, three jobs after four, its prior run cut
// mid-flight, its compared runs once complete and once cut too, and again
// with the prior run cut on the compared mix; and it rejects one prior
// run, on another mix and on the compared one.
func FuzzResetEqualsNew(f *testing.F) {
	cfgType := reflect.TypeOf(mapreduce.Config{})
	if cfgType.NumField() != len(configFields) {
		f.Fatalf("Config has %d fields, configFields varies %d", cfgType.NumField(), len(configFields))
	}
	var churn, placement uint16
	for i, fl := range configFields {
		if name := cfgType.Field(i).Name; name != fl.name {
			f.Fatalf("Config field %d is %s, configFields[%d] varies %s", i, name, i, fl.name)
		}
		switch fl.name {
		case "Noise", "Fault":
			churn |= 1 << i
		case "Power":
			churn |= 1 << i
			placement |= 1 << i
		case "Seed":
			placement |= 1 << i
		}
	}
	policies := append(quietPolicies(), quietPolicy{"LATE", func() mapreduce.Scheduler { return sched.NewLATE() }})
	// Config field i runs under the i-th policy of this rotation, so every
	// policy gets a field seed.
	rotation := []string{"FIFO", "Fair", "Tarazu", "E-Ant", "LATE"}
	if len(configFields) < len(rotation) {
		f.Fatalf("%d Config fields leave policies of %v without a field seed", len(configFields), rotation)
	}
	fieldSeeds := func(shift int) {
		for i := range configFields {
			pol := seedIndex(f, policies, policyName, rotation[(i+shift)%len(rotation)])
			for _, same := range []uint8{0, 1} {
				f.Add(int64(i), uint8(i), uint8(10), pol, uint8(3), uint16(0), uint16(1)<<i, uint8(0), same)
				f.Add(int64(i), uint8(i), uint8(10), pol, uint8(3), uint16(1)<<i, uint16(0), uint8(0), same)
			}
		}
	}
	fieldSeeds(0)
	// Two seeds per policy setup with noise, consolidation and faults on
	// in both configurations: the prior run and the compared runs each
	// crash a machine, blacklist one, and sleep and wake machines (LATE's
	// also speculate), and the prior run is cut with attempts running,
	// machines asleep and a blacklist live, 100 s in (260 s for E-Ant).
	// With end the compared runs complete; with end+3 they stop at the
	// same cut.
	setups := []struct {
		policy string
		types  uint8
		seed   int64
		end    uint8
	}{{"FIFO", 0, 10, 25}, {"Fair", 1, 10, 25}, {"Tarazu", 2, 10, 25}, {"E-Ant", 3, 48, 73}, {"LATE", 4, 10, 25}}
	churnSeeds := func(same uint8) {
		for _, c := range setups {
			for _, end := range []uint8{c.end, c.end + 3} {
				f.Add(c.seed, c.types, uint8(10), seedIndex(f, policies, policyName, c.policy), uint8(2), churn, churn, end, same)
			}
		}
	}
	churnSeeds(0)
	// A prior run rejected mid-placement, under E-Ant, on another mix and
	// on the compared one.
	eAnt := seedIndex(f, policies, policyName, "E-Ant")
	for _, same := range []uint8{0, 1} {
		f.Add(int64(3), uint8(3), uint8(10), eAnt, uint8(3), churn, churn, uint8(2), same)
	}
	// The policy setups again with the prior run cut on the compared mix,
	// so the warm run starts from state a run of its own jobs left
	// mid-flight: state a policy keys by the job's slot in the mix (E-Ant's
	// colony table) must have been cleared by its reset.
	churnSeeds(1)
	// Every Config field again under the next policy of the rotation, so
	// each field runs under two policies.
	fieldSeeds(1)
	f.Fuzz(func(t *testing.T, seed int64, types, size, policy, jobs uint8, a, b uint16, end, same uint8) {
		pol := policies[int(policy)%len(policies)]
		n := int(jobs) % 4
		specs := resetJobs(t, 1+n, seed)
		prior := resetJobs(t, 1+(n+1+int(jobs/4)%3)%4, seed+1)
		if same%2 == 1 {
			prior = slices.Clone(specs)
		}
		priorHorizon, horizon, rejected := resetEnd(end)
		if rejected {
			prior = append(prior, prior[0])
		}
		checked := func(d *mapreduce.Driver) {
			d.EnableInvariantChecks(func(err error) { t.Fatalf("%s, masks %#x → %#x: %v", pol.name, a, b, err) })
		}

		warmFleet := resetFleet(types, size)
		s := pol.build()
		d, err := mapreduce.NewDriver(warmFleet, s, resetConfig(a, seed))
		if err != nil {
			t.Fatal(err)
		}
		checked(d)
		if _, err := d.Run(prior, priorHorizon); (err != nil) != rejected {
			t.Fatalf("prior run (duplicated job ID: %v): %v", rejected, err)
		}
		resetPolicy(s)
		cfgB := resetConfig(b, seed)
		if err := d.Reset(s, cfgB); err != nil {
			t.Fatal(err)
		}
		warm, err := d.Run(specs, horizon)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(d.AdoptedConfig(), mapreduce.Defaulted(cfgB)) {
			t.Errorf("%s, masks %#x → %#x: the run changed its config", pol.name, a, b)
		}
		if reuse := same%2 == 1 && !rejected && (a^b)&placement == 0; d.PlacementReused() != reuse {
			t.Errorf("%s, masks %#x → %#x, prior on the compared mix %v, rejected %v: placement restored %v, want %v",
				pol.name, a, b, same%2 == 1, rejected, d.PlacementReused(), reuse)
		}

		coldFleet := resetFleet(types, size)
		fresh, err := mapreduce.NewDriver(coldFleet, pol.build(), resetConfig(b, seed))
		if err != nil {
			t.Fatal(err)
		}
		checked(fresh)
		cold, err := fresh.Run(specs, horizon)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(warm, cold) {
			t.Errorf("%s, masks %#x → %#x: reset Stats differ from new in %v", pol.name, a, b, differingFields(warm, cold))
		}
	})
}

// differingFields names the Stats fields in which a and b differ.
func differingFields(a, b *mapreduce.Stats) []string {
	va, vb := reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem()
	var out []string
	for i := 0; i < va.NumField(); i++ {
		if !reflect.DeepEqual(va.Field(i).Interface(), vb.Field(i).Interface()) {
			out = append(out, va.Type().Field(i).Name)
		}
	}
	return out
}
