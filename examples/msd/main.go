// MSD campaign: run the paper's full §V-C Microsoft-derived synthetic
// workload (87 jobs) on the 16-node testbed under every scheduler and
// print per-machine-type energy — the Fig. 8a experiment as a standalone
// program.
//
//	go run ./examples/msd [-jobs 87] [-seed 1]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"eant"
)

func main() {
	jobs := flag.Int("jobs", 87, "MSD job count")
	seed := flag.Int64("seed", 1, "workload and simulation seed")
	flag.Parse()
	if err := run(os.Stdout, *jobs, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "msd:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, jobs int, seed int64) error {
	workload := eant.MSDWorkload(jobs, seed)
	fmt.Fprintf(w, "MSD workload: %d jobs on the 16-node testbed (seed %d)\n\n", jobs, seed)

	results, savings, err := eant.Compare(eant.RunSpec{
		Cluster: eant.PaperTestbed(),
		Jobs:    workload,
		Seed:    seed,
	})
	if err != nil {
		return err
	}

	// Stable machine-type order for the report.
	var types []string
	for name := range results[eant.SchedulerFair].TypeJoules {
		types = append(types, name)
	}
	sort.Strings(types)

	order := []eant.Scheduler{eant.SchedulerFIFO, eant.SchedulerFair, eant.SchedulerTarazu, eant.SchedulerEAnt}
	fmt.Fprintf(w, "%-10s", "machine")
	for _, s := range order {
		fmt.Fprintf(w, "%12s", s)
	}
	fmt.Fprintln(w, " (KJ)")
	for _, name := range types {
		fmt.Fprintf(w, "%-10s", name)
		for _, s := range order {
			fmt.Fprintf(w, "%12.0f", results[s].TypeJoules[name]/1000)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-10s", "TOTAL")
	for _, s := range order {
		fmt.Fprintf(w, "%12.0f", results[s].TotalJoules/1000)
	}
	fmt.Fprintln(w)

	fmt.Fprintln(w)
	for _, s := range order {
		fmt.Fprintf(w, "%-8s makespan %v\n", s, results[s].Makespan.Round(time.Second))
	}
	fmt.Fprintln(w)
	// Iterate the fixed scheduler order, not the map: map iteration is
	// randomized, and the report should read identically on every run.
	for _, s := range order {
		if pct, ok := savings[s]; ok {
			fmt.Fprintf(w, "E-Ant saving vs %-8s %+.1f%%\n", s, pct)
		}
	}
	return nil
}
