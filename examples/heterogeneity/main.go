// Heterogeneity study: reproduce the paper's §II motivation experiments
// (Fig. 1) — how energy efficiency varies with hardware platform,
// workload type, and task arrival rate.
//
//	go run ./examples/heterogeneity
package main

import (
	"fmt"
	"io"
	"os"

	"eant/internal/experiments"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "heterogeneity:", err)
		os.Exit(1)
	}
}

func run(w io.Writer) error {
	fmt.Fprintln(w, "Reproducing the §II motivation study (Fig. 1)...")
	fmt.Fprintln(w)

	a, err := experiments.Fig1a()
	if err != nil {
		return err
	}
	if err := a.Table().Write(w); err != nil {
		return err
	}

	b, err := experiments.Fig1b()
	if err != nil {
		return err
	}
	if err := b.Table().Write(w); err != nil {
		return err
	}

	c, err := experiments.Fig1c()
	if err != nil {
		return err
	}
	if err := c.Table().Write(w); err != nil {
		return err
	}

	d, err := experiments.Fig1d()
	if err != nil {
		return err
	}
	return d.Table().Write(w)
}
