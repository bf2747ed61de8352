// Quickstart: build the paper's testbed, submit a small mixed workload,
// and compare E-Ant against the Hadoop Fair Scheduler.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"eant"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run(w io.Writer) error {
	cluster := eant.PaperTestbed()

	// Nine jobs, three of each PUMA benchmark, ~3 GB input each,
	// submitted 20 s apart.
	var jobs []eant.Job
	apps := []eant.App{eant.Wordcount, eant.Grep, eant.Terasort}
	for i := 0; i < 9; i++ {
		jobs = append(jobs, eant.NewJob(i, apps[i%3], 3200, 4,
			time.Duration(i)*20*time.Second))
	}

	results, savings, err := eant.Compare(eant.RunSpec{
		Cluster: cluster,
		Jobs:    jobs,
		Seed:    1,
	}, eant.SchedulerEAnt, eant.SchedulerFair)
	if err != nil {
		return err
	}

	for _, s := range []eant.Scheduler{eant.SchedulerFair, eant.SchedulerEAnt} {
		r := results[s]
		fmt.Fprintf(w, "%-6s finished %d jobs in %v using %.0f KJ\n",
			s, r.JobsCompleted, r.Makespan.Round(time.Second), r.TotalJoules/1000)
	}
	fmt.Fprintf(w, "E-Ant energy saving vs Fair: %.1f%%\n", savings[eant.SchedulerFair])
	return nil
}
