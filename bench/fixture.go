package main

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"eant"
	"eant/internal/mapreduce"
	"eant/internal/power"
	"eant/internal/sim"
)

// Fixture timings call one layer's public functions in batches on the
// fixture spec's world stopped 1 ns before one of its control ticks, at
// fixtureTicks ticks spread evenly over the run, so that they sample the
// states the run passes through: a single instant can be far from typical
// — at the tick with the most pending maps an offer cost up to eight times
// the run's average. Stopping just before the tick also stops before the
// heartbeat sweep due at the same instant, so the pending queues and free
// slots are what that sweep will see. Each batch makes at least opsPerTick
// elementary calls between two clock reads, so the clock's own cost is
// noise. The calls run from the benchmark's own code, never from inside a
// driver callback.
const (
	fixtureTicks = 16
	opsPerTick   = 25_000
)

// fixtures accumulates the per-tick timings, in nanoseconds.
type fixtures struct {
	offerNs                  float64 // Σ per-offer time × offers per sweep
	sweepOffers, calls, accs int
	syncNs, tickNs           float64 // Σ per-call time over the ticks
	isLocalNs                float64 // Σ per-call time over ticks with active maps
	isLocalTicks             int
	taken                    []*mapreduce.Task
	lookups                  []lookup
	local                    int // lookups that hit, so they are not optimised away
}

type lookup struct{ job, block, machine int }

// takeFixtures runs spec once to count its control ticks, then stops it
// before each sampled tick and times the layers there.
func takeFixtures(tw *tracedWorld, spec eant.RunSpec) (*fixtures, error) {
	tw.c = counts{}
	if _, err := tw.run(spec, specHorizon(spec)); err != nil {
		return nil, err
	}
	ticks, ctx := tw.c.ticks, tw.ctx
	if ticks == 0 {
		return nil, fmt.Errorf("the fixture spec ran no control tick")
	}
	pol := tw.policies[spec.Scheduler].inner
	interval := driverConfig(spec).ControlInterval
	f := &fixtures{}
	for k := 0; k < fixtureTicks; k++ {
		tick := 1 + (2*k+1)*ticks/(2*fixtureTicks)
		if _, err := tw.run(spec, time.Duration(tick)*interval-1); err != nil {
			return nil, err
		}
		f.sample(ctx, pol, tw.driver.Meter())
	}
	return f, nil
}

// perOp is the nanoseconds per operation since start.
func perOp(start time.Time, ops int) float64 {
	return float64(time.Since(start).Nanoseconds()) / float64(ops)
}

// reps is how many times an action of n operations must run to make
// opsPerTick operations.
func reps(n int) int { return (opsPerTick + n - 1) / n }

// sample times every fixture on the stopped world. The offer sweeps go
// first and restore the queues; the control tick goes last, because it
// moves the policy's state on.
func (f *fixtures) sample(ctx *mapreduce.Context, pol mapreduce.Scheduler, meter *power.Meter) {
	if n := f.sweep(ctx, pol); n > 0 {
		r := reps(n)
		start := time.Now()
		for i := 0; i < r; i++ {
			f.sweep(ctx, pol)
		}
		f.offerNs += perOp(start, r*n) * float64(n)
		f.sweepOffers += n
	}

	machines := ctx.Cluster.Size()
	f.lookups = f.lookups[:0]
	for _, j := range ctx.ActiveJobs() {
		for b := range j.Maps {
			f.lookups = append(f.lookups, lookup{j.Spec.ID, b, len(f.lookups) % machines})
		}
	}
	if n := len(f.lookups); n > 0 {
		r := reps(n)
		start := time.Now()
		for i := 0; i < r; i++ {
			for _, l := range f.lookups {
				if ctx.HDFS.IsLocal(l.job, l.block, l.machine) {
					f.local++
				}
			}
		}
		f.isLocalNs += perOp(start, r*n)
		f.isLocalTicks++
	}

	// The clock advances 1 ms per call, as if the calls were spread over
	// the run; the world is discarded after the sample.
	now, r := ctx.Now(), reps(machines)
	start := time.Now()
	for i := 0; i < r; i++ {
		now += time.Millisecond
		meter.SyncAll(now)
	}
	f.syncNs += perOp(start, r*machines)

	start = time.Now()
	pol.OnControlTick(ctx)
	f.tickNs += perOp(start, 1)
}

// sweep replays the heartbeat sweep: every available machine is offered
// its free slots until the policy declines, as the driver's sweep does,
// except that accepted tasks are not started. Afterwards they go back with
// Requeue, newest first, which restores the pending queues. It returns the
// offers made.
func (f *fixtures) sweep(ctx *mapreduce.Context, pol mapreduce.Scheduler) int {
	n := 0
	for _, m := range ctx.Cluster.Machines() {
		if !m.Available() {
			continue
		}
		for k := m.FreeMapSlots(); k > 0; k-- {
			n++
			t := pol.AssignMap(ctx, m)
			if t == nil {
				break
			}
			f.taken = append(f.taken, t)
		}
		for k := m.FreeReduceSlots(); k > 0; k-- {
			n++
			t := pol.AssignReduce(ctx, m)
			if t == nil {
				break
			}
			f.taken = append(f.taken, t)
		}
	}
	f.calls += n
	f.accs += len(f.taken)
	for i := len(f.taken) - 1; i >= 0; i-- {
		ctx.Requeue(f.taken[i])
	}
	f.taken = f.taken[:0]
	return n
}

// dispatchFixture times a bare engine firing self-rescheduling typed
// event chains, as many as the traced runs' mean pending events, until it
// has fired as many events as one traced unit; it returns the median over
// five such runs of the time per event. The chains' periods spread over
// 1.5–7.5 s, so most land in the calendar ring as heartbeats do.
func dispatchFixture(pendingMean, eventsPerUnit float64) float64 {
	chains := max(int(math.Round(pendingMean)), 1)
	events := max(int(math.Round(eventsPerUnit)), 1)
	per := make([]float64, 5)
	for b := range per {
		start := time.Now()
		e := sim.NewEngine()
		e.SetBucketWidth(3 * time.Second)
		fired := 0
		var kind sim.EventKind
		kind = e.RegisterKind(func(i int, _ any) {
			fired++
			if fired >= events {
				e.Stop()
				return
			}
			e.ScheduleKindAfter(time.Duration(1+i%5)*1500*time.Millisecond, kind, i, nil)
		})
		for i := 0; i < chains; i++ {
			e.ScheduleKind(time.Duration(i)*time.Millisecond, kind, i, nil)
		}
		if err := e.Run(); err != nil && !errors.Is(err, sim.ErrStopped) {
			panic(err)
		}
		per[b] = float64(time.Since(start).Nanoseconds()) / float64(fired)
	}
	slices.Sort(per)
	return per[len(per)/2]
}
