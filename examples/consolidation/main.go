// Consolidation: pair each scheduler with covering-subset server power
// management — the integration the paper names as future work (§VIII).
// Idle machines outside the covering subset sleep at standby power and
// wake (with a resume penalty) when the scheduler assigns to them; E-Ant,
// which already concentrates work on the machines it favors, keeps more
// of the fleet asleep than Fair does.
//
//	go run ./examples/consolidation
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
		fmt.Fprintln(os.Stderr, "consolidation:", err)
		os.Exit(1)
	}
}

func run(w io.Writer) error {
	// Light load: 40 jobs with 90 s mean spacing leaves lulls where
	// machines can actually sleep.
	jobs := eant.MSDWorkload(40, 3)
	for i := range jobs {
		jobs[i].Submit = jobs[i].Submit * 2
	}

	fmt.Fprintln(w, "scheduler   consolidation   total KJ   makespan    sleeps/wakes")
	for _, s := range []eant.Scheduler{eant.SchedulerFair, eant.SchedulerEAnt} {
		for _, consolidated := range []bool{false, true} {
			spec := eant.RunSpec{
				Cluster:   eant.PaperTestbed(),
				Scheduler: s,
				Jobs:      jobs,
				Seed:      3,
			}
			mode := "off"
			if consolidated {
				spec.Consolidation = &eant.Consolidation{} // defaults
				mode = "on"
			}
			r, err := eant.Run(spec)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%-11s %-15s %-10.0f %-11v %d/%d\n",
				s, mode, r.TotalJoules/1000, r.Makespan.Round(time.Second),
				r.Stats.Sleeps, r.Stats.Wakes)
		}
	}
	fmt.Fprintln(w, "\nWith consolidation on, compare the two schedulers' totals: E-Ant's")
	fmt.Fprintln(w, "steering keeps more machines asleep, compounding the power-down win.")
	return nil
}
