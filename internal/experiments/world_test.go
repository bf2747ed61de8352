package experiments

import (
	"runtime/debug"
	"testing"

	"eant/internal/cluster"
	"eant/internal/core"
)

// perWarmRun is the allocation bound of one warm run, the bound of the
// root package's TestWarmRunAllocsBounded.
const perWarmRun = 100

// worldCampaign is a 20-job E-Ant campaign over c.
func worldCampaign(t *testing.T, c *cluster.Cluster) Campaign {
	t.Helper()
	jobs, err := msdJobs(20, DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	return Campaign{Cluster: c, Sched: SchedEAnt, Params: core.DefaultParams(), Jobs: jobs, Config: defaultDriverConfig()}
}

// TestRunAllReusesWorlds measures that RunAll keeps one world per worker
// within a call instead of building one per campaign. On one worker,
// eight campaigns over one cluster may allocate at most perWarmRun times
// more per extra campaign than one campaign does. Each call names a new
// cluster, so no pooled world is over it and both counts start from a
// world built in the call. A world built per campaign costs about 1 200
// allocations for this 20-job E-Ant run, so it fails the bound.
func TestRunAllReusesWorlds(t *testing.T) {
	c := worldCampaign(t, nil)
	allocs := func(n int) float64 {
		campaigns := make([]Campaign, n)
		return testing.AllocsPerRun(2, func() {
			c.Cluster = cluster.Testbed()
			for i := range campaigns {
				campaigns[i] = c
			}
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

// TestRunAllKeepsWorldsAcrossCalls measures that a RunAll call takes the
// world an earlier call over the same cluster left in the pool: a call of
// one campaign then allocates no more than one warm run may, against
// about 1 200 allocations for a call that builds its world. The garbage
// collector is off while it measures, because a collection empties a
// sync.Pool, and the test is skipped under the race detector, which drops
// a random share of the pool's puts.
func TestRunAllKeepsWorldsAcrossCalls(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops a random share of sync.Pool puts")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	campaigns := []Campaign{worldCampaign(t, cluster.Testbed())}
	// AllocsPerRun's unmeasured first call builds the world and pools it.
	allocs := testing.AllocsPerRun(4, func() {
		if _, err := RunAll(campaigns, 1); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per RunAll call after the first", allocs)
	if allocs > perWarmRun {
		t.Errorf("a RunAll call over the cluster of the previous call allocates %.0f times, more than one warm run's %d: it does not take the pooled world",
			allocs, perWarmRun)
	}
}
