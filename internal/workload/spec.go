package workload

import (
	"fmt"
	"math"
	"time"
)

// SizeClass buckets jobs by input size as in Table III.
type SizeClass int

// Size classes of the MSD workload. Unclassified marks ad-hoc jobs outside
// the MSD taxonomy.
const (
	Unclassified SizeClass = iota
	Small
	Medium
	Large
)

// String returns the Table III label.
func (c SizeClass) String() string {
	switch c {
	case Small:
		return "S"
	case Medium:
		return "M"
	case Large:
		return "L"
	default:
		return "-"
	}
}

// JobSpec describes one Hadoop job before execution: what to run, on how
// much data, split into how many tasks, submitted when.
type JobSpec struct {
	ID         int
	App        App
	Class      SizeClass
	InputMB    float64
	NumMaps    int
	NumReduces int
	Submit     time.Duration
}

// NewJobSpec builds a job with one map per 64 MB block and the given reduce
// count. Reduce count 0 is valid (map-only job).
func NewJobSpec(id int, app App, inputMB float64, numReduces int, submit time.Duration) JobSpec {
	return JobSpec{
		ID:         id,
		App:        app,
		InputMB:    inputMB,
		NumMaps:    MapsForInput(inputMB),
		NumReduces: numReduces,
		Submit:     submit,
	}
}

// Name returns a human-readable job label, e.g. "Wordcount-S#12".
func (j JobSpec) Name() string {
	if j.Class == Unclassified {
		return fmt.Sprintf("%s#%d", j.App, j.ID)
	}
	return fmt.Sprintf("%s-%s#%d", j.App, j.Class, j.ID)
}

// ClassLabel returns the "App-Class" string used by Fig. 8c's x-axis,
// e.g. "Wordcount-S".
func (j JobSpec) ClassLabel() string {
	return fmt.Sprintf("%s-%s", j.App, j.Class)
}

// MaxTasks bounds a job's map and reduce counts: task indices travel as
// int32 (probe events).
const MaxTasks = math.MaxInt32

// MaxInputMB is the largest input whose block count fits in MaxTasks.
const MaxInputMB = BlockMB * MaxTasks

// Validate reports the first structural problem with the spec.
func (j JobSpec) Validate() error {
	switch {
	case j.ID < math.MinInt32 || j.ID > math.MaxInt32:
		// Probe events carry job IDs as int32.
		return fmt.Errorf("workload: job ID %d does not fit in int32", j.ID)
	case j.App < Wordcount || j.App > Terasort:
		return fmt.Errorf("workload: job %d has unknown app %d", j.ID, j.App)
	case j.InputMB <= 0 || j.InputMB > MaxInputMB || math.IsNaN(j.InputMB):
		return fmt.Errorf("workload: job %d has input %.1f MB outside (0, %.0f]", j.ID, j.InputMB, MaxInputMB)
	case j.NumMaps <= 0 || j.NumMaps > MaxTasks:
		return fmt.Errorf("workload: job %d has %d map tasks", j.ID, j.NumMaps)
	case j.NumReduces < 0 || j.NumReduces > MaxTasks:
		return fmt.Errorf("workload: job %d has %d reduce tasks", j.ID, j.NumReduces)
	case j.Submit < 0:
		return fmt.Errorf("workload: job %d submitted at negative time", j.ID)
	}
	return nil
}

// MapInputMB returns the input size of one map task: whole blocks except a
// possibly-short tail block.
func (j JobSpec) MapInputMB(taskIndex int) float64 {
	if taskIndex < 0 || taskIndex >= j.NumMaps {
		panic(fmt.Sprintf("workload: job %d has no map task %d", j.ID, taskIndex))
	}
	if taskIndex == j.NumMaps-1 {
		tail := j.InputMB - BlockMB*float64(j.NumMaps-1)
		if tail > 0 {
			return tail
		}
	}
	return BlockMB
}

// ShuffleMBPerReduce returns the shuffle volume each reduce task pulls,
// assuming an even partition of map output.
func (j JobSpec) ShuffleMBPerReduce() float64 {
	if j.NumReduces == 0 {
		return 0
	}
	return j.InputMB * ProfileOf(j.App).ShuffleRatio / float64(j.NumReduces)
}
