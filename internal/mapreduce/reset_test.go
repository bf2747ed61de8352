package mapreduce_test

import (
	"reflect"
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
	vary func(*mapreduce.Config, *cluster.Cluster)
}{
	{"Heartbeat", func(c *mapreduce.Config, _ *cluster.Cluster) { c.Heartbeat = 5 * time.Second }},
	{"ControlInterval", func(c *mapreduce.Config, _ *cluster.Cluster) { c.ControlInterval = 45 * time.Second }},
	{"Slowstart", func(c *mapreduce.Config, _ *cluster.Cluster) { c.Slowstart = 0.5 }},
	{"Noise", func(c *mapreduce.Config, _ *cluster.Cluster) { c.Noise = noise.Default() }},
	{"Replication", func(c *mapreduce.Config, _ *cluster.Cluster) { c.Replication = 1 }},
	{"Seed", func(c *mapreduce.Config, _ *cluster.Cluster) { c.Seed++ }},
	{"KeepTaskRecords", func(c *mapreduce.Config, _ *cluster.Cluster) { c.KeepTaskRecords = true }},
	{"ForcedLocalFraction", func(c *mapreduce.Config, _ *cluster.Cluster) { c.ForcedLocalFraction = 0.5 }},
	{"NetShareDivisor", func(c *mapreduce.Config, _ *cluster.Cluster) { c.NetShareDivisor = 8 }},
	{"ComputeOnlyTypes", func(c *mapreduce.Config, fleet *cluster.Cluster) {
		c.ComputeOnlyTypes = fleet.TypeNames()[:1]
	}},
	{"Power", func(c *mapreduce.Config, _ *cluster.Cluster) {
		c.Power = mapreduce.PowerMgmt{Enabled: true, IdleTimeout: 10 * time.Second}
	}},
	{"Fault", func(c *mapreduce.Config, _ *cluster.Cluster) {
		c.Fault = fault.Config{MachineMTBF: time.Hour, TaskFailProb: 0.05, BlacklistThreshold: 2}
	}},
	{"Probe", func(c *mapreduce.Config, _ *cluster.Cluster) {
		p, err := probe.New(probe.Config{})
		if err != nil {
			panic(err)
		}
		c.Probe = p
	}},
}

// resetConfig builds the configuration a fuzz mask selects over fleet: the
// default configuration with a 30 s control interval and the given seed,
// varied in the fields whose bits are set. Each call builds a fresh probe.
func resetConfig(mask uint16, seed int64, fleet *cluster.Cluster) mapreduce.Config {
	cfg := mapreduce.DefaultConfig()
	cfg.ControlInterval = 30 * time.Second
	cfg.Seed = seed
	for i, f := range configFields {
		if mask&(1<<i) != 0 {
			f.vary(&cfg, fleet)
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

// FuzzResetEqualsNew checks that a reset driver is a new one. A driver
// runs a mix of a few jobs under configuration A, is Reset to
// configuration B with its policy reset, and runs another mix, drawn from
// another seed with another job count; the Stats must deep-equal those of
// a new driver's run of the second mix under B on a fresh copy of the
// fleet. So the compared run is carved out of an arena that holds a
// larger or smaller old mix, at the old replica count when A and B
// differ in it. The seed corpus varies each Config field alone, in both
// directions, on fleets of six machines running four jobs after one.
func FuzzResetEqualsNew(f *testing.F) {
	cfgType := reflect.TypeOf(mapreduce.Config{})
	if cfgType.NumField() != len(configFields) {
		f.Fatalf("Config has %d fields, configFields varies %d", cfgType.NumField(), len(configFields))
	}
	for i, fl := range configFields {
		if name := cfgType.Field(i).Name; name != fl.name {
			f.Fatalf("Config field %d is %s, configFields[%d] varies %s", i, name, i, fl.name)
		}
	}
	for i := range configFields {
		f.Add(int64(i), uint8(i), uint8(10), uint8(i), uint8(3), uint16(0), uint16(1)<<i)
		f.Add(int64(i), uint8(i), uint8(10), uint8(i), uint8(3), uint16(1)<<i, uint16(0))
	}
	policies := append(quietPolicies(), quietPolicy{"LATE", func() mapreduce.Scheduler { return sched.NewLATE() }})
	f.Fuzz(func(t *testing.T, seed int64, types, size, policy, jobs uint8, a, b uint16) {
		pol := policies[int(policy)%len(policies)]
		n := int(jobs) % 4
		specs := resetJobs(t, 1+n, seed)
		prior := resetJobs(t, 1+(n+1+int(jobs/4)%3)%4, seed+1)

		warmFleet := resetFleet(types, size)
		s := pol.build()
		d, err := mapreduce.NewDriver(warmFleet, s, resetConfig(a, seed, warmFleet))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Run(prior, -1); err != nil {
			t.Fatal(err)
		}
		resetPolicy(s)
		if err := d.Reset(s, resetConfig(b, seed, warmFleet)); err != nil {
			t.Fatal(err)
		}
		warm, err := d.Run(specs, -1)
		if err != nil {
			t.Fatal(err)
		}

		coldFleet := resetFleet(types, size)
		fresh, err := mapreduce.NewDriver(coldFleet, pol.build(), resetConfig(b, seed, coldFleet))
		if err != nil {
			t.Fatal(err)
		}
		cold, err := fresh.Run(specs, -1)
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
