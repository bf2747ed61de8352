// Command eantsim runs the reproduction experiments of "Towards Energy
// Efficiency in Heterogeneous Hadoop Clusters by Adaptive Task
// Assignment" (ICDCS 2015) and prints the tables and figure series the
// paper reports.
//
// Usage:
//
//	eantsim <experiment> [flags]
//
// Experiments: table1 table2 table3 fig1a fig1b fig1c fig1d fig4 fig6
// fig7 fig8 fig9 fig10 fig11a fig11b fig12a fig12b consolidation failures
// compare trace sweep all
//
// Flags:
//
//	-csv        emit CSV instead of aligned tables
//	-jobs N     job count for 'compare', 'trace' and 'sweep' (default 40)
//	-seed S     seed for 'compare', 'trace' and 'sweep' (default 1)
//	-sched S    scheduler for 'trace' (default E-Ant)
//	-parallel N worker cap for experiment sweeps (default GOMAXPROCS;
//	            1 forces fully sequential execution — results are
//	            identical either way)
//	-cpuprofile F  write a pprof CPU profile of the experiment to F
//	-memprofile F  write a pprof heap profile (after the run) to F
//	-probe-interval N  sample machines every N heartbeats (default 1)
//	-probe-trails      record pheromone rows at every control tick
//	-timeline F write a Chrome trace-event / Perfetto timeline to F
//	-probe-report F  write the probe histogram report as JSON to F
//
// The four probe flags apply to the 'trace' experiment only. It runs one
// MSD campaign (-jobs, -seed, -sched) and writes its probe event stream to
// stdout as JSON Lines: every offer, draw, assignment, task completion
// with its Eq. 2 energy, control tick with the fleet energy, and job
// submit/done with its phase timeline.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"eant/internal/cluster"
	"eant/internal/core"
	"eant/internal/experiments"
	"eant/internal/mapreduce"
	"eant/internal/noise"
	"eant/internal/parallel"
	"eant/internal/probe"
	"eant/internal/sim"
	"eant/internal/tabwrite"
	"eant/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("eantsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	csv := fs.Bool("csv", false, "emit CSV instead of aligned tables")
	jobs := fs.Int("jobs", 40, "job count for 'compare' and 'trace'")
	seed := fs.Int64("seed", 1, "seed for 'compare' and 'trace'")
	schedName := fs.String("sched", "E-Ant", "scheduler for 'trace' (FIFO|Fair|Tarazu|LATE|E-Ant)")
	workers := fs.Int("parallel", 0, "worker cap for experiment sweeps (0 = GOMAXPROCS, 1 = sequential)")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile of the experiment to this file")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile (after the run) to this file")
	probeInterval := fs.Int("probe-interval", 0, "sample every machine's utilization/energy/slots every N heartbeats (0 = every heartbeat; 'trace' experiment only)")
	probeTrails := fs.Bool("probe-trails", false, "record per-control-tick pheromone-matrix snapshots ('trace' experiment only)")
	timelineFile := fs.String("timeline", "", "write a Chrome trace-event / Perfetto timeline to this file ('trace' experiment only)")
	reportFile := fs.String("probe-report", "", "write the probe's histogram report as JSON to this file ('trace' experiment only)")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: eantsim <experiment> [flags]")
		fmt.Fprintln(stderr, "experiments:", allNames())
		fs.PrintDefaults()
	}
	if len(args) < 1 || args[0] == "-h" || args[0] == "-help" || args[0] == "--help" {
		fs.Usage()
		return 2
	}
	name := args[0]
	if err := fs.Parse(args[1:]); err != nil {
		return 2
	}
	parallel.SetDefaultWorkers(*workers)

	if name != "trace" && (*probeInterval != 0 || *probeTrails || *timelineFile != "" || *reportFile != "") {
		fmt.Fprintf(stderr, "eantsim: -probe-interval, -probe-trails, -timeline and -probe-report only apply to the 'trace' experiment (it runs a single campaign and exports its probe events)\n")
		return 2
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(stderr, "eantsim: -cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "eantsim: -cpuprofile: %v\n", err)
			f.Close()
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		// Snapshot the heap on the way out, after the experiment ran.
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(stderr, "eantsim: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "eantsim: -memprofile: %v\n", err)
			}
		}()
	}

	emit := func(t *tabwrite.Table) error {
		if *csv {
			return t.WriteCSV(stdout)
		}
		return t.Write(stdout)
	}

	if name == "sweep" {
		t, err := sweepTable(*jobs, *seed)
		if err != nil {
			fmt.Fprintf(stderr, "eantsim: sweep: %v\n", err)
			return 1
		}
		if err := emit(t); err != nil {
			fmt.Fprintf(stderr, "eantsim: sweep: %v\n", err)
			return 1
		}
		return 0
	}
	if name == "trace" {
		sinks := probeSinks{
			Interval: *probeInterval,
			Trails:   *probeTrails,
			Timeline: *timelineFile,
			Report:   *reportFile,
		}
		if err := emitTrace(stdout, *jobs, *seed, *schedName, sinks); err != nil {
			fmt.Fprintf(stderr, "eantsim: trace: %v\n", err)
			return 1
		}
		return 0
	}
	runOne := func(name string) error {
		tables, err := tablesFor(name, *jobs, *seed)
		if err != nil {
			return err
		}
		for _, t := range tables {
			if err := emit(t); err != nil {
				return err
			}
		}
		return nil
	}

	if name == "all" {
		for _, n := range allNames() {
			if n == "all" || n == "compare" || n == "trace" || n == "sweep" {
				continue
			}
			if err := timed(n, stderr, func() error { return runOne(n) }); err != nil {
				fmt.Fprintf(stderr, "eantsim: %s: %v\n", n, err)
				return 1
			}
		}
		return 0
	}
	if err := runOne(name); err != nil {
		fmt.Fprintf(stderr, "eantsim: %s: %v\n", name, err)
		return 1
	}
	return 0
}

func allNames() []string {
	return []string{
		"table1", "table2", "table3",
		"fig1a", "fig1b", "fig1c", "fig1d",
		"fig4", "fig6", "fig7", "fig8", "fig9",
		"fig10", "fig11a", "fig11b", "fig12a", "fig12b",
		"consolidation", "failures", "compare", "trace", "sweep", "all",
	}
}

// tablesFor runs one experiment and returns its renderable tables.
func tablesFor(name string, jobs int, seed int64) ([]*tabwrite.Table, error) {
	one := func(t *tabwrite.Table, err error) ([]*tabwrite.Table, error) {
		if err != nil {
			return nil, err
		}
		return []*tabwrite.Table{t}, nil
	}
	switch name {
	case "table1", "machines":
		return one(experiments.TableI(), nil)
	case "table2":
		return one(experiments.TableII(), nil)
	case "table3", "msd-spec":
		t, err := experiments.TableIII(87, seed)
		return one(t, err)
	case "fig1a":
		r, err := experiments.Fig1a()
		if err != nil {
			return nil, err
		}
		return one(r.Table(), nil)
	case "fig1b":
		r, err := experiments.Fig1b()
		if err != nil {
			return nil, err
		}
		return one(r.Table(), nil)
	case "fig1c":
		r, err := experiments.Fig1c()
		if err != nil {
			return nil, err
		}
		return one(r.Table(), nil)
	case "fig1d":
		r, err := experiments.Fig1d()
		if err != nil {
			return nil, err
		}
		return one(r.Table(), nil)
	case "fig4":
		r, err := experiments.Fig4()
		if err != nil {
			return nil, err
		}
		return one(r.Table(), nil)
	case "fig6":
		r, err := experiments.Fig6()
		if err != nil {
			return nil, err
		}
		return one(r.Table(), nil)
	case "fig7":
		r, err := experiments.Fig7()
		if err != nil {
			return nil, err
		}
		return one(r.Table(), nil)
	case "fig8":
		r, err := experiments.Fig8(experiments.DefaultFig8Config())
		if err != nil {
			return nil, err
		}
		return []*tabwrite.Table{r.TableA(), r.TableB(), r.TableC()}, nil
	case "fig9":
		f8, err := experiments.Fig8(experiments.DefaultFig8Config())
		if err != nil {
			return nil, err
		}
		r, err := experiments.Fig9(f8)
		if err != nil {
			return nil, err
		}
		return []*tabwrite.Table{r.TableA(), r.TableB()}, nil
	case "fig10":
		r, err := experiments.Fig10()
		if err != nil {
			return nil, err
		}
		return one(r.Table(), nil)
	case "fig11a":
		r, err := experiments.Fig11a()
		if err != nil {
			return nil, err
		}
		return one(r.Table(), nil)
	case "fig11b":
		r, err := experiments.Fig11b()
		if err != nil {
			return nil, err
		}
		return one(r.Table(), nil)
	case "fig12a":
		r, err := experiments.Fig12a()
		if err != nil {
			return nil, err
		}
		return one(r.Table(), nil)
	case "fig12b":
		r, err := experiments.Fig12b()
		if err != nil {
			return nil, err
		}
		return one(r.Table(), nil)
	case "consolidation":
		r, err := experiments.Consolidation()
		if err != nil {
			return nil, err
		}
		return one(r.Table(), nil)
	case "failures":
		cfg := experiments.DefaultFailureSweepConfig()
		cfg.Seed = seed
		r, err := experiments.FailureSweepRun(cfg)
		if err != nil {
			return nil, err
		}
		return one(r.Table(), nil)
	case "compare":
		return compareTable(jobs, seed)
	default:
		return nil, fmt.Errorf("unknown experiment %q (try one of %v)", name, allNames())
	}
}

// msdCampaign is one MSD campaign on the testbed in the experiments'
// setup: the workload of seed's "experiments" stream at the given mean
// interarrival, the scaled control interval, evaluation noise and driver
// seed seed. The caller sets the scheduler.
func msdCampaign(jobs int, seed int64, interarrival time.Duration) (experiments.Campaign, error) {
	msd, err := workload.GenerateMSD(workload.MSDConfig{
		Jobs: jobs, Scale: experiments.ScaleDown, MeanInterarrival: interarrival,
	}, sim.NewRNG(seed).Fork("experiments"))
	if err != nil {
		return experiments.Campaign{}, err
	}
	cfg := mapreduce.DefaultConfig()
	cfg.ControlInterval = experiments.DefaultControlInterval
	cfg.Seed = seed
	cfg.Noise = noise.Default()
	return experiments.Campaign{Cluster: cluster.Testbed(), Params: core.DefaultParams(), Jobs: msd, Config: cfg}, nil
}

// sweepTable grids E-Ant's (ρ, β) space on one MSD workload, reporting
// total energy per cell relative to the Fair baseline.
func sweepTable(jobs int, seed int64) (*tabwrite.Table, error) {
	base, err := msdCampaign(jobs, seed, 30*time.Second)
	if err != nil {
		return nil, err
	}
	rhos := []float64{0.2, 0.5, 0.8}
	betas := []float64{0, 0.1, 0.2, 0.4}
	campaigns := []experiments.Campaign{base}
	campaigns[0].Sched = experiments.SchedFair
	for _, rho := range rhos {
		for _, beta := range betas {
			c := base
			c.Sched = experiments.SchedEAnt
			c.Params.Rho = rho
			c.Params.Beta = beta
			campaigns = append(campaigns, c)
		}
	}
	cells, err := experiments.RunAll(campaigns, 0)
	if err != nil {
		return nil, err
	}
	baseline := cells[0].TotalJoules
	t := tabwrite.New(
		fmt.Sprintf("E-Ant (ρ, β) sweep — %d MSD jobs, seed %d; cells: saving vs Fair %%", jobs, seed),
		"rho \\ beta", "0", "0.1", "0.2", "0.4")
	for ri, rho := range rhos {
		row := []any{fmt.Sprintf("%.1f", rho)}
		for bi := range betas {
			j := cells[1+ri*len(betas)+bi].TotalJoules
			row = append(row, tabwrite.Cell(100*(baseline-j)/baseline, 1))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// probeSinks configure the 'trace' experiment's probe and its file
// outputs beside the stdout stream: a Perfetto timeline and a histogram
// report.
type probeSinks struct {
	Interval int
	Trails   bool
	Timeline string
	Report   string
}

// emitTrace runs one MSD campaign with a probe attached, streaming its
// events to w as JSON Lines through the probe's sink, then writes the
// configured file sinks from the probe's ring and report.
func emitTrace(w io.Writer, jobs int, seed int64, schedName string, sinks probeSinks) error {
	c, err := msdCampaign(jobs, seed, 45*time.Second)
	if err != nil {
		return err
	}
	c.Sched = experiments.SchedulerName(schedName)

	// The first write error stops the stream; it is reported after the
	// run, which it never interrupts.
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	var streamErr error
	pcfg := probe.Config{SampleEvery: sinks.Interval, Trails: sinks.Trails, Sink: func(ev probe.Event) {
		if streamErr == nil {
			streamErr = enc.Encode(ev)
		}
	}}
	if pcfg.SampleEvery <= 0 {
		pcfg.SampleEvery = 1 // the stream samples every heartbeat by default
	}
	p, err := probe.New(pcfg)
	if err != nil {
		return err
	}
	cfg := c.Config
	cfg.Probe = p
	c.Config = cfg
	if _, err := experiments.RunAll([]experiments.Campaign{c}, 0); err != nil {
		return err
	}
	if streamErr != nil {
		return fmt.Errorf("probe: stream: %w", streamErr)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("probe: stream: %w", err)
	}
	if sinks.Timeline != "" {
		f, err := os.Create(sinks.Timeline)
		if err != nil {
			return fmt.Errorf("-timeline: %w", err)
		}
		if err := probe.WriteTimeline(f, p.Events()); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("-timeline: %w", err)
		}
	}
	if sinks.Report != "" {
		f, err := os.Create(sinks.Report)
		if err != nil {
			return fmt.Errorf("-probe-report: %w", err)
		}
		if err := p.Report().WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("-probe-report: %w", err)
		}
	}
	return nil
}

// compareTable runs a quick ad-hoc MSD comparison across the Fig. 8
// schedulers on seed's workload.
func compareTable(jobs int, seed int64) ([]*tabwrite.Table, error) {
	base, err := msdCampaign(jobs, seed, 45*time.Second)
	if err != nil {
		return nil, err
	}
	scheds := []experiments.SchedulerName{experiments.SchedFIFO, experiments.SchedFair, experiments.SchedTarazu, experiments.SchedEAnt}
	campaigns := make([]experiments.Campaign, len(scheds))
	for i, name := range scheds {
		campaigns[i] = base
		campaigns[i].Sched = name
	}
	cells, err := experiments.RunAll(campaigns, 0)
	if err != nil {
		return nil, err
	}
	type row struct {
		name   experiments.SchedulerName
		joules float64
		span   time.Duration
	}
	rows := make([]row, len(scheds))
	var fair float64
	for i, name := range scheds {
		rows[i] = row{name, cells[i].TotalJoules, cells[i].Horizon}
		if name == experiments.SchedFair {
			fair = cells[i].TotalJoules
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].joules < rows[j].joules })
	t := tabwrite.New(
		fmt.Sprintf("Scheduler comparison — %d MSD jobs, seed %d", jobs, seed),
		"scheduler", "total KJ", "makespan", "saving vs Fair %")
	for _, r := range rows {
		saving := "-"
		if fair > 0 && r.name != experiments.SchedFair {
			saving = tabwrite.Cell(100*(fair-r.joules)/fair, 1)
		}
		t.AddRow(string(r.name), tabwrite.Cell(r.joules/1000, 0), r.span.Round(time.Second).String(), saving)
	}
	return []*tabwrite.Table{t}, nil
}
