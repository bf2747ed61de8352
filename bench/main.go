// Command bench is the simulator's benchmark: four closed-loop workloads,
// each timed end to end through the public eant API and then broken down
// layer by layer from outside the program. See README.md.
//
//	bash bench/run.sh [--workload W] [--seed S] [--seconds N] [--trace 0|1] [-json]
//	bash bench/run.sh -compare base.jsonl change.jsonl
//
// With --workload, the workload runs in this process and the last line of
// standard output is one JSON object: correct, attempted, failed, and the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// Without it, every workload runs in a child process of its own and each
// prints its full record; with -json those records are JSON lines, the
// input of -compare.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"text/tabwriter"
	"time"
)

// result is the JSON object a workload run prints last.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// record is one line of a full run's -json output.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	result
}

const (
	// defaultSeconds is BENCHMARK.json's run_seconds.
	defaultSeconds = 15
	// childTimeout bounds one workload's child process.
	childTimeout = 170 * time.Second
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run in this process; empty runs every workload, each in a child process")
	seed := fs.Int64("seed", defaultSeed, "seed the workload inputs are generated from")
	seconds := fs.Float64("seconds", defaultSeconds, "untraced timed-loop budget per workload, in seconds")
	trace := fs.Int("trace", 1, "1 adds the traced pass, the probe pass and the fixtures")
	jsonOut := fs.Bool("json", false, "print JSON only, no table")
	compare := fs.Bool("compare", false, "compare two files of -json runs: -compare base.jsonl change.jsonl")
	child := fs.Bool("child", false, "print every measured metric on the JSON line (used by a full run for its children)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: -compare base.jsonl change.jsonl")
			return 2
		}
		if err := compareFiles(stdout, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 || (*trace != 0 && *trace != 1) || *seconds < 0 {
		fmt.Fprintln(stderr, "usage: [--workload W] [--seed S] [--seconds N] [--trace 0|1] [-json]")
		return 2
	}
	runtime.GOMAXPROCS(workerCount())
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, setups: 5}

	if *name == "" {
		return runAll(cfg, *jsonOut, stdout, stderr)
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	out, err := measure(w, cfg)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	var keep []metricDef // the JSON line's metrics; nil keeps all
	switch {
	case *child:
	case cfg.trace:
		keep = perLayer
	default:
		keep = endToEnd
	}
	if err := writeResult(stdout, w.name, cfg.seed, out, !*jsonOut, keep); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}

// writeResult prints a workload's outcome: the table of every measured
// metric when table is set, then the JSON line with the metrics in keep
// (all of them when keep is nil).
func writeResult(w io.Writer, name string, seed int64, out *outcome, table bool, keep []metricDef) error {
	res := result{Correct: out.correct, Attempted: out.attempted, Failed: out.failed, Metrics: out.metrics}
	if table {
		writeTable(w, name, seed, res)
	}
	if keep != nil {
		res.Metrics = res.Metrics.only(keep)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

// runAll measures every workload, each in a child process of this binary
// so that no workload's heap or RSS carries into the next. It exits 1 if
// any workload failed to run or ran incorrectly.
func runAll(cfg config, jsonOut bool, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		res, err := runChild(self, w.name, cfg, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", w.name, err)
			code = 1
			continue
		}
		if !res.Correct {
			code = 1
		}
		if jsonOut {
			line, err := json.Marshal(record{Workload: w.name, Seed: cfg.seed, result: res})
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
			fmt.Fprintln(stdout, string(line))
		} else {
			writeTable(stdout, w.name, cfg.seed, res)
		}
	}
	return code
}

func runChild(self, name string, cfg config, stderr io.Writer) (result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	trace := 0
	if cfg.trace {
		trace = 1
	}
	cmd := exec.CommandContext(ctx, self, "-child", "-json", "-workload", name,
		"-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(cfg.seconds), "-trace", fmt.Sprint(trace))
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} // dies with this process
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, stderr
	if err := cmd.Run(); err != nil {
		return result{}, err
	}
	var res result
	if err := json.Unmarshal(lastLine(out.Bytes()), &res); err != nil {
		return result{}, fmt.Errorf("reading child output: %w", err)
	}
	return res, nil
}

func lastLine(b []byte) []byte {
	lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
	return lines[len(lines)-1]
}

// writeTable prints a result with one metric per line, in table order.
func writeTable(w io.Writer, name string, seed int64, res result) {
	fmt.Fprintf(w, "%s  seed %d  correct %t  units attempted %d, failed %d\n", name, seed, res.Correct, res.Attempted, res.Failed)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if m, ok := res.Metrics[d.Name]; ok {
				fmt.Fprintf(tw, "  %s\t%.6g\t%s\n", d.Name, m.Value, m.Unit)
			}
		}
	}
	_ = tw.Flush() // a failed write to the terminal leaves nothing to do
}
