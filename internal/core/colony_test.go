package core

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"eant/internal/cluster"
	"eant/internal/fault"
	"eant/internal/mapreduce"
	"eant/internal/noise"
	"eant/internal/sim"
	"eant/internal/workload"
)

// retireCheck is E-Ant that checks its colony retirement after every
// control tick: the matrix must hold colonies of active jobs alone, each
// at its job's slot-table entry, with no other entry set, and must keep
// every colony an active job had before the tick.
type retireCheck struct {
	*EAnt
	t       *testing.T
	before  []*colony
	ticks   int
	retired int
}

func (r *retireCheck) OnControlTick(ctx *mapreduce.Context) {
	r.init(ctx)
	r.before = append(r.before[:0], r.mx.cols...)
	r.EAnt.OnControlTick(ctx)
	r.ticks++
	mx := r.mx
	activeAt := make(map[int]*mapreduce.Job)
	for _, j := range ctx.ActiveJobs() {
		activeAt[j.Slot()] = j
	}
	owned := func(c *colony) bool {
		j := activeAt[c.slot>>1]
		return j != nil && j.Spec.ID == c.key.JobID
	}
	for _, c := range mx.cols {
		if !owned(c) {
			r.t.Fatalf("tick at %v: colony %+v outlived its job", ctx.Now(), c.key)
		}
		if mx.bySlot[c.slot] != c {
			r.t.Fatalf("tick at %v: colony %+v is not at its slot-table entry %d", ctx.Now(), c.key, c.slot)
		}
	}
	entries := 0
	for _, c := range mx.bySlot {
		if c != nil {
			entries++
		}
	}
	if entries != len(mx.cols) {
		r.t.Fatalf("tick at %v: %d slot-table entries for %d colonies", ctx.Now(), entries, len(mx.cols))
	}
	for _, c := range r.before {
		if owned(c) && !slices.Contains(mx.cols, c) {
			r.t.Fatalf("tick at %v: active job %d lost its colony %+v", ctx.Now(), c.key.JobID, c.key)
		}
	}
	r.retired += len(r.before) - len(mx.cols)
}

// TestEAntRetiresColoniesOfInactiveJobs runs E-Ant on MSD mixes through
// retireCheck: a plain run, then, on the same warm scheduler and driver, a
// run whose crashes and attempt failures fail jobs as well as complete
// them.
func TestEAntRetiresColoniesOfInactiveJobs(t *testing.T) {
	jobs, err := workload.GenerateMSD(workload.MSDConfig{Jobs: 30, Scale: 64, MeanInterarrival: 30 * time.Second}, sim.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	r := &retireCheck{EAnt: MustNewEAnt(p), t: t}
	cfg := mapreduce.DefaultConfig()
	cfg.ControlInterval = 30 * time.Second
	cfg.Seed = 3
	cfg.Noise = noise.Default()
	d, err := mapreduce.NewDriver(cluster.Testbed(), r, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, crashes := range []bool{false, true} {
		if crashes {
			cfg.Fault = fault.Config{MachineMTBF: 20 * time.Minute, MachineMTTR: 3 * time.Minute, TaskFailProb: 0.15, MaxAttempts: 2}
			if err := r.ResetForRun(p); err != nil {
				t.Fatal(err)
			}
			if err := d.Reset(r, cfg); err != nil {
				t.Fatal(err)
			}
		}
		r.ticks, r.retired = 0, 0
		stats, err := d.Run(jobs, 24*time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		if len(stats.Jobs) != len(jobs) || r.ticks == 0 || r.retired == 0 {
			t.Fatalf("crashes %v: %d of %d jobs finished, %d ticks, %d colonies retired", crashes, len(stats.Jobs), len(jobs), r.ticks, r.retired)
		}
		if crashes && (stats.Crashes == 0 || stats.JobsFailed == 0) {
			t.Fatalf("the crash run had %d crashes and %d failed jobs, want some of each", stats.Crashes, stats.JobsFailed)
		}
		t.Logf("crashes %v: %d ticks, %d colonies retired, %d jobs failed", crashes, r.ticks, r.retired, stats.JobsFailed)
	}
}

// TestWarmSlotTableFollowsTheMix pins E-Ant's per-run colony table, which
// finds a job's colonies by the job's slot in the mix. A scheduler reset
// after one mix runs a second whose slot 0 is another job of another app,
// then the first mix again; after each, the Stats and the row of slot 0's
// map colony must equal those of a new scheduler run on that mix alone.
// Each run is cut while slot 0's job is active, so its colony is live.
func TestWarmSlotTableFollowsTheMix(t *testing.T) {
	apps := workload.Apps()
	mix := func(firstID, appShift int) []workload.JobSpec {
		jobs := make([]workload.JobSpec, 6)
		for i := range jobs {
			jobs[i] = workload.NewJobSpec(firstID+i, apps[(i+appShift)%len(apps)], 12800, 4, time.Duration(i)*10*time.Second)
		}
		return jobs
	}
	first, second := mix(0, 0), mix(100, 1)
	p := DefaultParams()
	cfg := mapreduce.DefaultConfig()
	cfg.ControlInterval = 30 * time.Second
	cfg.Seed = 5
	cfg.Noise = noise.Default()
	const cut = 3 * time.Minute
	run := func(d *mapreduce.Driver, e *EAnt, jobs []workload.JobSpec) (*mapreduce.Stats, []float64) {
		t.Helper()
		stats, err := d.Run(jobs, cut)
		if err != nil {
			t.Fatal(err)
		}
		k := ColonyKey{JobID: jobs[0].ID, App: jobs[0].App, Kind: mapreduce.MapTask}
		c := e.mx.bySlot[0]
		if c == nil || c.key != k {
			t.Fatalf("slot 0's map colony is %v, want %+v's", c, k)
		}
		return stats, slices.Clone(c.row)
	}

	e := MustNewEAnt(p)
	d, err := mapreduce.NewDriver(cluster.Testbed(), e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	run(d, e, first)
	for i, jobs := range [][]workload.JobSpec{second, first} {
		if err := e.ResetForRun(p); err != nil {
			t.Fatal(err)
		}
		if err := d.Reset(e, cfg); err != nil {
			t.Fatal(err)
		}
		warmStats, warmRow := run(d, e, jobs)

		fresh := MustNewEAnt(p)
		fd, err := mapreduce.NewDriver(cluster.Testbed(), fresh, cfg)
		if err != nil {
			t.Fatal(err)
		}
		coldStats, coldRow := run(fd, fresh, jobs)
		if len(coldStats.Jobs) > 0 {
			t.Fatalf("mix %d: %d jobs finished by %v; slot 0's colony may be retired", i, len(coldStats.Jobs), cut)
		}
		if !slices.ContainsFunc(coldRow, func(v float64) bool { return v != p.InitTau }) {
			t.Fatalf("mix %d: slot 0's map colony learned nothing by %v", i, cut)
		}
		if !slices.Equal(warmRow, coldRow) {
			t.Errorf("mix %d: slot 0's map trails %v after a reset, %v on a new scheduler", i, warmRow, coldRow)
		}
		if !reflect.DeepEqual(warmStats, coldStats) {
			t.Errorf("mix %d: Stats after a reset differ from a new scheduler's", i)
		}
	}
}
