package experiments

import (
	"testing"
	"time"

	"eant/internal/cluster"
	"eant/internal/core"
	"eant/internal/mapreduce"
	"eant/internal/sched"
	"eant/internal/workload"
)

// benchCampaign runs one full MSD campaign per iteration and reports
// allocations, so hot-path allocation fixes show up as allocs/op deltas
// end to end rather than in microbenchmarks that miss cross-layer
// effects.
func benchCampaign(b *testing.B, mk func() mapreduce.Scheduler) {
	b.Helper()
	jobs, err := msdJobs(30, DefaultSeed)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := Campaign{
			Cluster:  cluster.Testbed(),
			Instance: mk(),
			Jobs:     jobs,
			Config:   defaultDriverConfig(),
		}
		if _, err := c.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCampaignFairDelay(b *testing.B) {
	benchCampaign(b, func() mapreduce.Scheduler { return sched.NewFairWithDelay(3) })
}

// BenchmarkWideFairDelay stresses the delay-scheduling walk with 32
// concurrent jobs: the per-offer considered set then outgrows the
// stack-map threshold, so a freshly-literal map forces heap bucket
// allocations on every slot offer.
func BenchmarkWideFairDelay(b *testing.B) {
	jobs := workload.Batch(workload.Grep, 32, 3200, 2, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := mapreduce.DefaultConfig()
		cfg.Replication = 1
		d, err := mapreduce.NewDriver(cluster.Testbed(), sched.NewFairWithDelay(5), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := d.Run(jobs, 48*time.Hour); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCampaignEAnt(b *testing.B) {
	benchCampaign(b, func() mapreduce.Scheduler {
		s, err := core.NewEAnt(core.DefaultParams())
		if err != nil {
			b.Fatal(err)
		}
		return s
	})
}
