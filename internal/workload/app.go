// Package workload defines the benchmark applications the paper evaluates
// (PUMA Wordcount, Grep, Terasort), their per-task resource demand
// profiles, job specifications, and the Microsoft-derived (MSD) synthetic
// workload of §V-C / Table III.
package workload

import (
	"fmt"
	"math"
)

// App identifies a PUMA benchmark application.
type App int

// The three applications of the paper's evaluation.
const (
	Wordcount App = iota + 1
	Grep
	Terasort
)

// Apps lists every application in stable order.
func Apps() []App { return []App{Wordcount, Grep, Terasort} }

// String returns the PUMA benchmark name.
func (a App) String() string {
	switch a {
	case Wordcount:
		return "Wordcount"
	case Grep:
		return "Grep"
	case Terasort:
		return "Terasort"
	default:
		return fmt.Sprintf("App(%d)", int(a))
	}
}

// ParseApp resolves a benchmark name (case-sensitive, as printed by String).
func ParseApp(s string) (App, error) {
	for _, a := range Apps() {
		if a.String() == s {
			return a, nil
		}
	}
	return 0, fmt.Errorf("workload: unknown application %q", s)
}

// Profile is the per-task resource demand vector of one application,
// normalized per MB of input and per reference core (the desktop's 3.4 GHz
// i7 core). These vectors are the only channel through which workload
// heterogeneity enters the simulator, mirroring the paper's observation
// (Fig. 1d) that Wordcount is map/CPU-intensive while Grep and Terasort
// are shuffle/reduce/IO-intensive.
type Profile struct {
	App App

	// MapCPUPerMB is core-seconds of map computation per input MB.
	MapCPUPerMB float64
	// MapIOPerMB is MB of local-disk traffic (read + spill) per input MB.
	MapIOPerMB float64
	// ShuffleRatio is map-output bytes per input byte; it sizes the
	// network transfer between map and reduce.
	ShuffleRatio float64
	// ReduceCPUPerMB is core-seconds of reduce computation per shuffled MB.
	ReduceCPUPerMB float64
	// ReduceIOPerMB is MB of local-disk traffic (merge + write) per
	// shuffled MB.
	ReduceIOPerMB float64
}

// Calibration (see DESIGN.md §5): block-sized (64 MB) map tasks land at
//   - Wordcount ≈ 19 core-s of map CPU → map-dominated completion time and
//     the lowest per-machine saturation rate (Fig. 1c peak ≈ 20 task/min),
//   - Grep: cheap CPU, scan-amplified IO → intermediate saturation rate,
//   - Terasort: full-volume shuffle (ratio 1.0) → reduce/shuffle-dominated
//     jobs with the highest map-side saturation rate.
//
// Indexed by App; the zero entry is unused.
var profiles = [...]Profile{
	Wordcount: {
		App:            Wordcount,
		MapCPUPerMB:    0.30,
		MapIOPerMB:     1.2,
		ShuffleRatio:   0.05,
		ReduceCPUPerMB: 0.20,
		ReduceIOPerMB:  2.0,
	},
	Grep: {
		App:            Grep,
		MapCPUPerMB:    0.02,
		MapIOPerMB:     2.5,
		ShuffleRatio:   0.35,
		ReduceCPUPerMB: 0.01,
		ReduceIOPerMB:  1.5,
	},
	Terasort: {
		App:            Terasort,
		MapCPUPerMB:    0.02,
		MapIOPerMB:     1.8,
		ShuffleRatio:   1.0,
		ReduceCPUPerMB: 0.03,
		ReduceIOPerMB:  2.2,
	},
}

// ProfileOf returns the demand profile of app.
func ProfileOf(app App) Profile {
	if app < Wordcount || int(app) >= len(profiles) {
		panic(fmt.Sprintf("workload: no profile for %v", app))
	}
	return profiles[app]
}

// CPUBound reports whether the application's map phase is CPU-dominated on
// the reference machine (used to classify "homogeneous jobs" for the
// job-level exchange strategy).
func (p Profile) CPUBound() bool {
	// Reference disk bandwidth share ≈ 30 MB/s per slot: compare CPU
	// seconds to IO seconds for one MB.
	return p.MapCPUPerMB > p.MapIOPerMB/30
}

// BlockMB is the HDFS block size of the paper's setup (§V-B).
const BlockMB = 64.0

// MapsForInput returns the number of map tasks for the given input size:
// one per HDFS block.
func MapsForInput(inputMB float64) int {
	if inputMB <= 0 {
		return 0
	}
	return int(math.Ceil(inputMB / BlockMB))
}
