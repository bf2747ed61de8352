package main

// metricDef is one reported metric. Bound is the share of the baseline
// median by which an end-to-end metric may get worse before a change
// counts as a regression; per-layer metrics carry no bound. The tables
// below are the program's copy of BENCHMARK.json, which the tests hold
// equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the simulator sees, all from the
// untraced loop.
var endToEnd = []metricDef{
	{"run_ms_p50", "ms", "lower", 0.20},
	{"run_ms_p90", "ms", "lower", 0.25},
	{"sim_tasks_per_s", "tasks/s", "higher", 0.20},
	{"allocs_per_run", "allocs", "lower", 0.08},
	{"alloc_bytes_per_run", "bytes", "lower", 0.08},
	{"max_rss_mb", "MiB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the traced-pass counts and timings, the fixture timings
// and the set-up split. README.md lists which end-to-end metric each
// should move, and on which workload.
var perLayer = []metricDef{
	{Name: "mapreduce.offers", Unit: "count", Better: "lower"},
	{Name: "mapreduce.offer_accept_ratio", Unit: "ratio", Better: "higher"},
	{Name: "mapreduce.tasks", Unit: "count", Better: "lower"},
	{Name: "mapreduce.wasted_attempt_ratio", Unit: "ratio", Better: "lower"},
	{Name: "mapreduce.reset_us", Unit: "us", Better: "lower"},
	{Name: "sim.events", Unit: "count", Better: "lower"},
	{Name: "sim.pending_mean", Unit: "count", Better: "lower"},
	{Name: "sched.control_ticks", Unit: "count", Better: "lower"},
	{Name: "sched.control_tick_us", Unit: "us", Better: "lower"},
	{Name: "sched.control_tick_share_pct", Unit: "%", Better: "lower"},
	{Name: "sched.completions", Unit: "count", Better: "lower"},
	{Name: "sched.slot_notifications", Unit: "count", Better: "lower"},
	{Name: "power.sleeps", Unit: "count", Better: "lower"},
	{Name: "power.wakes", Unit: "count", Better: "lower"},
	{Name: "fault.crashes", Unit: "count", Better: "lower"},
	{Name: "hdfs.locality_ratio", Unit: "ratio", Better: "higher"},
	{Name: "go.gc_per_run", Unit: "count", Better: "lower"},
	{Name: "host.ns_per_offer", Unit: "ns", Better: "lower"},
	{Name: "host.ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "host.ref_kernel_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "probe.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "sched.offer_ns", Unit: "ns", Better: "lower"},
	{Name: "sched.offer_fixture_accept_ratio", Unit: "ratio", Better: "higher"},
	{Name: "power.sync_ns_per_machine", Unit: "ns", Better: "lower"},
	{Name: "hdfs.is_local_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.dispatch_ns", Unit: "ns", Better: "lower"},
	{Name: "attribution.residual_pct", Unit: "%", Better: "lower"},
	{Name: "setup.fleet_ms", Unit: "ms", Better: "lower"},
	{Name: "setup.jobs_ms", Unit: "ms", Better: "lower"},
	{Name: "setup.new_runner_ms", Unit: "ms", Better: "lower"},
	{Name: "setup.prime_ms", Unit: "ms", Better: "lower"},
}

// metric is one measured value as printed.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects values by name, taking each unit from the tables.
type metricSet map[string]metric

func (s metricSet) set(name string, v float64) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				s[name] = metric{Value: v, Unit: d.Unit}
				return
			}
		}
	}
	panic("bench: unknown metric " + name)
}

// only returns the metrics of s named in defs.
func (s metricSet) only(defs []metricDef) metricSet {
	out := make(metricSet, len(defs))
	for _, d := range defs {
		if m, ok := s[d.Name]; ok {
			out[d.Name] = m
		}
	}
	return out
}
