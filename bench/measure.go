package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"syscall"
	"time"

	"eant"
	"eant/internal/mapreduce"
)

// config is one workload measurement's settings.
type config struct {
	seed int64
	// seconds is the untraced loop's budget. The loop runs whole pool
	// cycles, at least one, and stops at the cycle boundary nearest to it.
	seconds float64
	// trace adds the traced pass, the probe pass and the fixtures.
	trace bool
	// units caps the pool size; 0 uses the workload's full pool.
	units int
	// setups is how many cold set-ups setup_s takes the median of.
	setups int
}

// outcome is one workload measurement.
type outcome struct {
	correct           bool
	attempted, failed int
	metrics           metricSet
}

// checker records every unit's digests as the passes run and verifies
// them against the cold references at the end. Recording allocates only
// when its buffers grow, so the timed loop's allocation counts are the
// runs' own to within a few allocations per run.
type checker struct {
	got   []digest
	units []checkedUnit
	from  int // start in got of the unit being recorded
}

// checkedUnit is one attempted unit: its digests are got[from:to].
type checkedUnit struct {
	pass           string
	unit, from, to int
	err            error
}

func newChecker() *checker {
	return &checker{got: make([]digest, 0, 4096), units: make([]checkedUnit, 0, 1024)}
}

func (c *checker) add(s *mapreduce.Stats) digest {
	d := digestOf(s)
	c.got = append(c.got, d)
	return d
}

// end closes the unit whose digests were added since the last end.
func (c *checker) end(pass string, unit int, err error) {
	c.units = append(c.units, checkedUnit{pass, unit, c.from, len(c.got), err})
	c.from = len(c.got)
}

// verify counts every recorded unit as attempted, and as failed if it
// returned an error or any digest differs from its cold reference.
func (c *checker) verify(refs [][]digest, out *outcome) {
	for _, u := range c.units {
		out.attempted++
		got, want, err := c.got[u.from:u.to], refs[u.unit], u.err
		if err == nil && len(got) != len(want) {
			err = fmt.Errorf("%d results for %d specs", len(got), len(want))
		}
		for k := 0; err == nil && k < len(want); k++ {
			if got[k] != want[k] {
				err = fmt.Errorf("spec %d digest %+v differs from its cold reference %+v", k, got[k], want[k])
			}
		}
		if err != nil {
			out.failed++
			if out.failed <= 3 {
				fmt.Fprintf(os.Stderr, "%s pass, unit %d: %v\n", u.pass, u.unit, err)
			}
		}
	}
}

// measure sets a workload up, runs the untraced timed loop and, when
// tracing, the layer passes, and checks every unit against cold
// references computed last, so that their cold worlds do not count in
// max_rss_mb.
func measure(w *workload, cfg config) (*outcome, error) {
	n := w.units
	if cfg.units > 0 && cfg.units < n {
		n = cfg.units
	}
	clock := newRefClock()
	var wd *world
	setups := make([]setupTimes, max(cfg.setups, 1))
	for i := range setups {
		var err error
		if wd, setups[i], err = setUp(w, cfg.seed, n, i); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups[i] = setups[i].scaled(clock.factor())
	}

	out := &outcome{correct: true, metrics: make(metricSet)}
	chk := newChecker()
	loop := untraced(wd, chk, clock, time.Duration(cfg.seconds*float64(time.Second)))
	setEndToEnd(out.metrics, loop, setups)
	if cfg.trace {
		if err := layers(out.metrics, wd, chk, clock, loop, setups); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
	}

	refs, err := references(wd)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if cfg.seed == defaultSeed {
		if err := checkExpected(w.name, refs); err != nil {
			fmt.Fprintln(os.Stderr, err)
			out.correct = false
		}
	}
	chk.verify(refs, out)
	out.correct = out.correct && out.failed == 0
	return out, nil
}

// loopStats is what the untraced loop measured.
type loopStats struct {
	// ms holds one reference-speed time per unit run, cycle after cycle
	// through a pool of poolSize units.
	ms             []float64
	poolSize       int
	tasks          int
	mallocs, bytes uint64
	gcs            uint32
	rssMiB         float64
	workers        int
}

// hostNs is the mean time of the pool's first n units in reference-speed
// host nanoseconds: the time times the workers that shared it, so a
// sweep's parallel wall time compares with the serial layer costs.
func (l loopStats) hostNs(n int) float64 {
	sum, runs := 0.0, 0
	for i, ms := range l.ms {
		if i%l.poolSize < n {
			sum += ms
			runs++
		}
	}
	return sum / float64(runs) * 1e6 * float64(l.workers)
}

// untraced is the end-to-end timed loop: only eant.Runner.Run or
// eant.RunMany between the clock reads, with digests recorded and the
// reference kernel run outside them.
func untraced(wd *world, chk *checker, clock *refClock, budget time.Duration) loopStats {
	ls := loopStats{ms: make([]float64, 0, 1<<14), poolSize: len(wd.units), workers: wd.workers}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for cycles := 1; ; cycles++ {
		for i, specs := range wd.units {
			t0 := time.Now()
			res, err := wd.run(specs)
			d := time.Since(t0)
			if err == nil {
				for _, r := range res {
					ls.tasks += chk.add(r.Stats).TasksDone
				}
			}
			chk.end("untraced", i, err)
			ls.ms = append(ls.ms, float64(d)*clock.factor()/1e6)
		}
		// Stop here unless another cycle would end nearer the budget.
		elapsed := time.Since(start)
		if elapsed+elapsed/time.Duration(2*cycles) >= budget {
			break
		}
	}
	runtime.ReadMemStats(&after)
	ls.mallocs = after.Mallocs - before.Mallocs
	ls.bytes = after.TotalAlloc - before.TotalAlloc
	ls.gcs = after.NumGC - before.NumGC
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		ls.rssMiB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return ls
}

func setEndToEnd(m metricSet, l loopStats, setups []setupTimes) {
	ms := slices.Clone(l.ms)
	slices.Sort(ms)
	total := 0.0
	for _, v := range ms {
		total += v
	}
	units := float64(len(ms))
	m.set("run_ms_p50", percentile(ms, 0.5))
	m.set("run_ms_p90", percentile(ms, 0.9))
	m.set("sim_tasks_per_s", float64(l.tasks)/(total/1e3))
	m.set("allocs_per_run", float64(l.mallocs)/units)
	m.set("alloc_bytes_per_run", float64(l.bytes)/units)
	m.set("max_rss_mb", l.rssMiB)
	m.set("setup_s", medianOf(setups, func(t setupTimes) time.Duration { return t.total() }).Seconds())
}

// layerUnits caps the units the traced and probe passes run: the pool's
// first ones, which bounds a traced run's extra time. Their counts are
// exact, and they are compared with the untraced times of the same units.
const layerUnits = 16

// layers runs the traced pass, the probe pass and the fixtures and sets
// the per-layer metrics. Every time is scaled to reference speed unit by
// unit, as in the untraced loop.
func layers(m metricSet, wd *world, chk *checker, clock *refClock, loop loopStats, setups []setupTimes) error {
	pool := wd.units[:min(len(wd.units), layerUnits)]
	tw := newTracedWorld(wd.fleet)
	for _, spec := range pool[0] { // prime, so every counted run is warm
		if _, err := tw.run(spec, specHorizon(spec)); err != nil {
			return fmt.Errorf("priming traced world: %w", err)
		}
	}
	tw.c = counts{}
	// The fixture spec is the first unit's last: E-Ant on a paper-sweep
	// mix, the workload's only spec elsewhere.
	fixSpec := pool[0][len(pool[0])-1]
	var tasks, wasted, sleeps, wakes, crashes, localMaps, totalMaps, fixTicks int
	var tracedNs, resetNs float64
	clock.factor()
	for i, specs := range pool {
		resets0 := tw.c.resetNs
		var err error
		start := time.Now()
		for _, spec := range specs {
			offers, ticks := tw.c.mapOffers+tw.c.reduceOffers, tw.c.ticks
			st, runErr := tw.run(spec, specHorizon(spec))
			if err = runErr; err != nil {
				break
			}
			if spec.Scheduler == fixSpec.Scheduler {
				fixTicks += tw.c.ticks - ticks
			}
			if seen := tw.c.mapOffers + tw.c.reduceOffers - offers; seen != st.MapOffers+st.ReduceOffers {
				err = fmt.Errorf("tracer saw %d offers, the driver counted %d", seen, st.MapOffers+st.ReduceOffers)
				break
			}
			tasks += chk.add(st).TasksDone
			wasted += st.TaskFailures + st.TasksKilledByCrash + st.MapOutputsLost + st.SpeculativeKilled
			sleeps, wakes, crashes = sleeps+st.Sleeps, wakes+st.Wakes, crashes+st.Crashes
			localMaps, totalMaps = localMaps+st.LocalMaps, totalMaps+st.TotalMaps
		}
		d := time.Since(start)
		chk.end("traced", i, err)
		f := clock.factor()
		tracedNs += float64(d) * f
		resetNs += float64(tw.c.resetNs-resets0) * f
	}
	c := tw.c

	var probeNs float64
	clock.factor()
	for i, specs := range pool {
		probed := slices.Clone(specs)
		for j := range probed {
			p, err := eant.NewProbe(eant.ProbeConfig{})
			if err != nil {
				return err
			}
			probed[j].Probe = p
		}
		start := time.Now()
		res, err := wd.run(probed)
		d := time.Since(start)
		if err == nil {
			for _, r := range res {
				chk.add(r.Stats)
			}
		}
		chk.end("probe", i, err)
		probeNs += float64(d) * clock.factor() * float64(wd.workers)
	}

	units := float64(len(pool))
	offers := float64(c.mapOffers+c.reduceOffers) / units
	events := float64(c.events) / units
	pendingMean := float64(c.pendingSum) / float64(max(c.ticks, 1))

	clock.factor()
	fix, err := takeFixtures(tw, fixSpec)
	if err != nil {
		return fmt.Errorf("fixtures: %w", err)
	}
	f := clock.factor()
	offerNs := fix.offerNs / float64(max(fix.sweepOffers, 1)) * f
	syncNs := fix.syncNs / fixtureTicks * f
	isLocalNs := fix.isLocalNs / float64(max(fix.isLocalTicks, 1)) * f
	tickNs := fix.tickNs / fixtureTicks * f
	// Only the fixture spec's policy spends time in its control ticks;
	// the baselines' are empty.
	specTicks := float64(fixTicks) / units
	clock.factor()
	dispatchNs := dispatchFixture(pendingMean, events) * clock.factor()

	host := loop.hostNs(len(pool))
	m.set("mapreduce.offers", offers)
	m.set("mapreduce.offer_accept_ratio", ratio(c.mapAccepts+c.reduceAccepts, c.mapOffers+c.reduceOffers))
	m.set("mapreduce.tasks", float64(tasks)/units)
	m.set("mapreduce.wasted_attempt_ratio", ratio(wasted, tasks+wasted))
	m.set("mapreduce.reset_us", resetNs/float64(max(c.resets, 1))/1e3)
	m.set("sim.events", events)
	m.set("sim.pending_mean", pendingMean)
	m.set("sched.control_ticks", float64(c.ticks)/units)
	m.set("sched.control_tick_us", tickNs/1e3)
	m.set("sched.control_tick_share_pct", 100*specTicks*tickNs/host)
	m.set("sched.completions", float64(c.completions)/units)
	m.set("sched.slot_notifications", float64(c.slotNotes)/units)
	m.set("power.sleeps", float64(sleeps)/units)
	m.set("power.wakes", float64(wakes)/units)
	m.set("fault.crashes", float64(crashes)/units)
	m.set("hdfs.locality_ratio", ratio(localMaps, totalMaps))
	m.set("go.gc_per_run", float64(loop.gcs)/float64(len(loop.ms)))
	m.set("host.ns_per_offer", host/offers)
	m.set("host.ns_per_event", host/events)
	m.set("host.ref_kernel_ms", clock.medianMs())
	m.set("trace.overhead_pct", 100*(tracedNs/units/host-1))
	m.set("probe.overhead_pct", 100*(probeNs/units/host-1))
	m.set("sched.offer_ns", offerNs)
	m.set("sched.offer_fixture_accept_ratio", ratio(fix.accs, fix.calls))
	m.set("power.sync_ns_per_machine", syncNs)
	m.set("hdfs.is_local_ns", isLocalNs)
	m.set("sim.dispatch_ns", dispatchNs)
	explained := offers*offerNs + specTicks*tickNs + events*dispatchNs + resetNs/units
	m.set("attribution.residual_pct", 100*(1-explained/host))
	ms := func(f func(setupTimes) time.Duration) float64 {
		return float64(medianOf(setups, f).Nanoseconds()) / 1e6
	}
	m.set("setup.fleet_ms", ms(func(t setupTimes) time.Duration { return t.fleet }))
	m.set("setup.jobs_ms", ms(func(t setupTimes) time.Duration { return t.jobs }))
	m.set("setup.new_runner_ms", ms(func(t setupTimes) time.Duration { return t.runner }))
	m.set("setup.prime_ms", ms(func(t setupTimes) time.Duration { return t.prime }))
	return nil
}

// percentile is the nearest-rank p-quantile of sorted values.
func percentile(sorted []float64, p float64) float64 {
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func medianOf(setups []setupTimes, f func(setupTimes) time.Duration) time.Duration {
	ds := make([]time.Duration, len(setups))
	for i, t := range setups {
		ds[i] = f(t)
	}
	slices.Sort(ds)
	return ds[len(ds)/2]
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
