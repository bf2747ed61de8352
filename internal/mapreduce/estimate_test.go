package mapreduce

import (
	"math"
	"testing"

	"eant/internal/cluster"
	"eant/internal/workload"
)

// idle never assigns a task.
type idle struct{}

func (idle) Name() string                                 { return "idle" }
func (idle) AssignMap(*Context, cluster.Machine) *Task    { return nil }
func (idle) AssignReduce(*Context, cluster.Machine) *Task { return nil }
func (idle) OnTaskComplete(*Context, *Task)               {}
func (idle) OnControlTick(*Context)                       {}

// TestEstimateTablesMatchServiceModel reads every (app, type) estimate of
// a cold driver and of the same driver reset for another run, and
// requires the service model's value to the bit.
func TestEstimateTablesMatchServiceModel(t *testing.T) {
	c := cluster.Testbed()
	jobs := []workload.JobSpec{
		workload.NewJobSpec(0, workload.Wordcount, 640, 2, 0),
		workload.NewJobSpec(1, workload.Grep, 1000, 3, 0),
		workload.NewJobSpec(2, workload.Terasort, 1280, 5, 0),
	}
	cfg := DefaultConfig()
	d, err := NewDriver(c, idle{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range []string{"cold", "reset"} {
		if run == "reset" {
			if err := d.Reset(idle{}, cfg); err != nil {
				t.Fatal(err)
			}
		}
		// Horizon 0 fires the submissions, which tabulate reduce estimates.
		if _, err := d.Run(jobs, 0); err != nil {
			t.Fatal(err)
		}
		specs := d.ctx.TypeSpecs()
		if len(specs) != 6 {
			t.Fatalf("%d machine types, want 6", len(specs))
		}
		for i := range d.arena.jobs {
			j := &d.arena.jobs[i]
			prof := workload.ProfileOf(j.Spec.App)
			for ti, spec := range specs {
				_, wantMap := mapService(prof, workload.BlockMB, spec, true)
				_, _, wantReduce := reduceService(prof, j.Spec.ShuffleMBPerReduce(), spec)
				if got := d.ctx.EstimateMapSeconds(j, ti); math.Float64bits(got) != math.Float64bits(wantMap) {
					t.Errorf("%s: %v map estimate on %s = %v, want %v", run, j.Spec.App, spec.Name, got, wantMap)
				}
				if got := d.ctx.EstimateReduceSeconds(j, ti); math.Float64bits(got) != math.Float64bits(wantReduce) {
					t.Errorf("%s: %v reduce estimate on %s = %v, want %v", run, j.Spec.App, spec.Name, got, wantReduce)
				}
			}
		}
		for _, m := range c.Machines() {
			if got := specs[d.ctx.TypeIndex(m)].Name; got != m.Spec().Name {
				t.Fatalf("TypeIndex(%s) names %s", m, got)
			}
		}
	}
}
