package main

import (
	"fmt"
	"time"

	"eant"
	"eant/internal/cluster"
	"eant/internal/core"
	"eant/internal/experiments"
	"eant/internal/mapreduce"
	"eant/internal/noise"
	"eant/internal/sched"
)

// counts are the traced pass's tallies, kept at the driver/scheduler
// boundary by the tracer wrapper and at the driver's Reset and Run calls.
type counts struct {
	mapOffers, mapAccepts       int
	reduceOffers, reduceAccepts int
	completions, slotNotes      int
	ticks                       int
	pendingSum                  int64 // Engine().Pending() summed over ticks
	resets                      int
	resetNs                     int64
	events                      uint64
}

// tracer wraps a policy and counts every call the driver makes into it.
// It only counts: a clock read per offer would cost as much as the offer
// itself, and the driver's calls into it are on the simulator's hot path,
// where eantlint allows neither wall-clock reads nor allocations. The
// layers' times come from the fixtures instead. A traced run therefore
// differs from an untraced one only in time.
type tracer struct {
	inner mapreduce.Scheduler
	tw    *tracedWorld
}

func (t *tracer) Name() string { return t.inner.Name() }

func (t *tracer) AssignMap(ctx *mapreduce.Context, m cluster.Machine) *mapreduce.Task {
	t.tw.c.mapOffers++
	task := t.inner.AssignMap(ctx, m)
	if task != nil {
		t.tw.c.mapAccepts++
	}
	return task
}

func (t *tracer) AssignReduce(ctx *mapreduce.Context, m cluster.Machine) *mapreduce.Task {
	t.tw.c.reduceOffers++
	task := t.inner.AssignReduce(ctx, m)
	if task != nil {
		t.tw.c.reduceAccepts++
	}
	return task
}

func (t *tracer) OnTaskComplete(ctx *mapreduce.Context, task *mapreduce.Task) {
	t.tw.c.completions++
	t.inner.OnTaskComplete(ctx, task)
}

func (t *tracer) OnControlTick(ctx *mapreduce.Context) {
	t.tw.c.ticks++
	t.tw.c.pendingSum += int64(t.tw.driver.Engine().Pending())
	t.tw.ctx = ctx
	t.inner.OnControlTick(ctx)
}

// observingTracer is the tracer of a policy that implements
// mapreduce.SlotObserver. The driver looks the interface up by type
// assertion, so a policy without it must be wrapped by the plain tracer,
// or the driver would start notifying a scheduler that never asked.
type observingTracer struct {
	*tracer
	obs mapreduce.SlotObserver
}

func (t observingTracer) OnSlotFreeChange(ctx *mapreduce.Context, m cluster.Machine, kind mapreduce.TaskKind, delta int) {
	t.tw.c.slotNotes++
	t.obs.OnSlotFreeChange(ctx, m, kind, delta)
}

// policy is one cached scheduler instance and its wrapper.
type policy struct {
	inner   mapreduce.Scheduler
	wrapped mapreduce.Scheduler
}

// tracedWorld drives mapreduce.Driver directly, the way eant.Runner does —
// NewDriver once, then Driver.Reset plus the policy's ResetForRun before
// every further run — with each policy wrapped in a tracer.
type tracedWorld struct {
	cluster  *cluster.Cluster
	driver   *mapreduce.Driver
	policies map[eant.Scheduler]policy
	c        counts
	// ctx is the driver's scheduler context, seen at the latest control
	// tick; the driver keeps one for its lifetime.
	ctx *mapreduce.Context
}

func newTracedWorld(fleet *eant.Cluster) *tracedWorld {
	return &tracedWorld{cluster: fleet.Clone(), policies: make(map[eant.Scheduler]policy)}
}

// run simulates spec on the warm world up to horizon.
func (tw *tracedWorld) run(spec eant.RunSpec, horizon time.Duration) (*mapreduce.Stats, error) {
	cfg := driverConfig(spec)
	p, cached := tw.policies[spec.Scheduler]
	if !cached {
		inner, err := experiments.NewScheduler(experiments.SchedulerName(spec.Scheduler), core.DefaultParams())
		if err != nil {
			return nil, err
		}
		tr := &tracer{inner: inner, tw: tw}
		p = policy{inner: inner, wrapped: tr}
		if obs, ok := inner.(mapreduce.SlotObserver); ok {
			p.wrapped = observingTracer{tracer: tr, obs: obs}
		}
		tw.policies[spec.Scheduler] = p
	}
	if tw.driver == nil {
		d, err := mapreduce.NewDriver(tw.cluster, p.wrapped, cfg)
		if err != nil {
			return nil, err
		}
		tw.driver = d
	} else {
		start := time.Now()
		if cached {
			if err := resetPolicy(p.inner); err != nil {
				return nil, err
			}
		}
		if err := tw.driver.Reset(p.wrapped, cfg); err != nil {
			return nil, err
		}
		tw.c.resetNs += time.Since(start).Nanoseconds()
		tw.c.resets++
	}
	st, err := tw.driver.Run(spec.Jobs, horizon)
	tw.c.events += tw.driver.Engine().Fired()
	return st, err
}

// resetPolicy returns a cached policy to its pre-run state, as eant.Runner
// does between runs.
func resetPolicy(s mapreduce.Scheduler) error {
	switch p := s.(type) {
	case *core.EAnt:
		return p.ResetForRun(core.DefaultParams())
	case *sched.Fair:
		p.ResetForRun()
	case *sched.Tarazu:
		p.ResetForRun()
	case *sched.FIFO:
		p.ResetForRun()
	default:
		return fmt.Errorf("cannot reset policy %q", s.Name())
	}
	return nil
}

// driverConfig is eant's RunSpec → mapreduce.Config translation. It is a
// copy of the unexported specConfig in eant.go; the traced pass must
// reproduce the untraced digests, so the copy cannot drift unnoticed.
func driverConfig(spec eant.RunSpec) mapreduce.Config {
	cfg := mapreduce.DefaultConfig()
	cfg.Seed = spec.Seed
	cfg.KeepTaskRecords = spec.KeepTaskRecords
	if spec.Consolidation != nil {
		cfg.Power = *spec.Consolidation
		cfg.Power.Enabled = true
	}
	if spec.ControlInterval > 0 {
		cfg.ControlInterval = spec.ControlInterval
	} else {
		cfg.ControlInterval = 30 * time.Second
	}
	if spec.Noise != nil {
		cfg.Noise = *spec.Noise
	} else {
		cfg.Noise = noise.Default()
	}
	if spec.Faults != nil {
		cfg.Fault = *spec.Faults
	}
	cfg.Probe = spec.Probe
	return cfg
}

// specHorizon is eant's default virtual-time cap for a spec.
func specHorizon(spec eant.RunSpec) time.Duration {
	if spec.Horizon > 0 {
		return spec.Horizon
	}
	return 48 * time.Hour
}
