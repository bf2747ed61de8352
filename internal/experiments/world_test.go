package experiments

import (
	"testing"

	"eant/internal/cluster"
	"eant/internal/core"
)

// TestRunAllReusesWorlds measures that RunAll keeps one world per worker
// instead of building one per campaign. On one worker, eight campaigns
// over one cluster may allocate at most 100 times more per extra campaign
// than one campaign does: the warm-run bound of the root package's
// TestWarmRunAllocsBounded. A world built per campaign costs about 1 400
// allocations for this 20-job E-Ant run, so it fails the bound.
func TestRunAllReusesWorlds(t *testing.T) {
	const perWarmRun = 100
	jobs, err := msdJobs(20, DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	c := Campaign{Cluster: cluster.Testbed(), Sched: SchedEAnt, Params: core.DefaultParams(), Jobs: jobs, Config: defaultDriverConfig()}
	allocs := func(n int) float64 {
		campaigns := make([]Campaign, n)
		for i := range campaigns {
			campaigns[i] = c
		}
		return testing.AllocsPerRun(2, func() {
			if _, err := RunAll(campaigns, 1); err != nil {
				t.Fatal(err)
			}
		})
	}
	one, eight := allocs(1), allocs(8)
	t.Logf("RunAll allocations: %.0f for one campaign, %.0f for eight", one, eight)
	if eight-one > 7*perWarmRun {
		t.Errorf("seven more campaigns cost %.0f allocations, more than %d each: RunAll does not reuse its world",
			eight-one, perWarmRun)
	}
}
