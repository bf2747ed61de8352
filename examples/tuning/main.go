// Tuning: explore E-Ant's parameter space on a fixed workload — the β
// fairness/energy tradeoff, the evaporation coefficient ρ, and the
// exchange strategies (the paper's §VI-C/§VI-D studies in miniature).
//
//	go run ./examples/tuning
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
		fmt.Fprintln(os.Stderr, "tuning:", err)
		os.Exit(1)
	}
}

func run(w io.Writer) error {
	jobs := eant.MSDWorkload(30, 5)
	noiseOff := eant.NoNoise()

	baseline, err := eant.Run(eant.RunSpec{
		Cluster:   eant.PaperTestbed(),
		Scheduler: eant.SchedulerFIFO,
		Jobs:      jobs,
		Seed:      5,
		Noise:     &noiseOff,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "baseline (FIFO): %.0f KJ in %v\n\n",
		baseline.TotalJoules/1000, baseline.Makespan.Round(time.Second))

	runWith := func(label string, mutate func(*eant.EAntParams)) error {
		params := eant.DefaultEAntParams()
		mutate(&params)
		r, err := eant.Run(eant.RunSpec{
			Cluster:    eant.PaperTestbed(),
			Scheduler:  eant.SchedulerEAnt,
			EAntParams: &params,
			Jobs:       jobs,
			Seed:       5,
			Noise:      &noiseOff,
		})
		if err != nil {
			return fmt.Errorf("%s: %w", label, err)
		}
		saving := 100 * (baseline.TotalJoules - r.TotalJoules) / baseline.TotalJoules
		fmt.Fprintf(w, "%-28s %.0f KJ (saving %+5.1f%%) makespan %v\n",
			label, r.TotalJoules/1000, saving, r.Makespan.Round(time.Second))
		return nil
	}

	fmt.Fprintln(w, "β sweep (fairness/locality weight):")
	for _, beta := range []float64{0, 0.1, 0.2, 0.4} {
		beta := beta
		if err := runWith(fmt.Sprintf("  beta=%.1f", beta), func(p *eant.EAntParams) { p.Beta = beta }); err != nil {
			return err
		}
	}

	fmt.Fprintln(w, "\nρ sweep (pheromone evaporation):")
	for _, rho := range []float64{0.2, 0.5, 0.8} {
		rho := rho
		if err := runWith(fmt.Sprintf("  rho=%.1f", rho), func(p *eant.EAntParams) { p.Rho = rho }); err != nil {
			return err
		}
	}

	fmt.Fprintln(w, "\nexchange strategies:")
	variants := []struct {
		label        string
		machine, job bool
	}{
		{"  no exchange", false, false},
		{"  machine-level only", true, false},
		{"  job-level only", false, true},
		{"  both (paper default)", true, true},
	}
	for _, v := range variants {
		v := v
		if err := runWith(v.label, func(p *eant.EAntParams) {
			p.MachineExchange = v.machine
			p.JobExchange = v.job
		}); err != nil {
			return err
		}
	}
	return nil
}
