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
// a cold driver and of the same driver reset to another divisor, and
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
	for i, divisor := range []float64{cfg.NetShareDivisor, 8} {
		if i > 0 {
			cfg.NetShareDivisor = divisor
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
		for _, j := range d.jobs {
			prof := workload.ProfileOf(j.Spec.App)
			for ti, spec := range specs {
				_, wantMap := mapService(prof, workload.BlockMB, spec, true, divisor)
				_, _, wantReduce := reduceService(prof, j.Spec.ShuffleMBPerReduce(), spec, divisor)
				if got := d.ctx.EstimateMapSeconds(j, ti); math.Float64bits(got) != math.Float64bits(wantMap) {
					t.Errorf("divisor %v: %v map estimate on %s = %v, want %v", divisor, j.Spec.App, spec.Name, got, wantMap)
				}
				if got := d.ctx.EstimateReduceSeconds(j, ti); math.Float64bits(got) != math.Float64bits(wantReduce) {
					t.Errorf("divisor %v: %v reduce estimate on %s = %v, want %v", divisor, j.Spec.App, spec.Name, got, wantReduce)
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
