package main

import (
	"fmt"
	"io"
	"time"
)

// clock abstracts the wall clock behind the sweep-timing printout, so the
// binary's only real-time consumer is this one injection point and tests
// can substitute a fake. Everything below main() runs on the simulator's
// virtual clock; TestSourceContracts keeps wall-clock reads out of every
// internal/ package.
type clock interface {
	Now() time.Time
	Since(t time.Time) time.Duration
}

// sysClock is the real wall clock.
type sysClock struct{}

func (sysClock) Now() time.Time                  { return time.Now() }
func (sysClock) Since(t time.Time) time.Duration { return time.Since(t) }

// wall is the injected clock; tests swap it for a fake.
var wall clock = sysClock{}

// timed runs f and reports its wall-clock duration on stderr, rounded to
// milliseconds.
func timed(name string, stderr io.Writer, f func() error) error {
	start := wall.Now()
	if err := f(); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "[%s done in %v]\n", name, wall.Since(start).Round(time.Millisecond))
	return nil
}
