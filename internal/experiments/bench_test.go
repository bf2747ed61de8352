package experiments

import (
	"testing"
	"time"

	"eant/internal/cluster"
	"eant/internal/core"
	"eant/internal/mapreduce"
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
		d, err := mapreduce.NewDriver(cluster.Testbed(), mk(), defaultDriverConfig())
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
