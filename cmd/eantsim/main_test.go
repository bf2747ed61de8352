package main

import (
	"encoding/json"
	"strings"
	"testing"
)

func runCLI(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var out, errOut strings.Builder
	code := run(args, &out, &errOut)
	return out.String(), errOut.String(), code
}

func TestCLITables(t *testing.T) {
	for _, name := range []string{"table1", "table2", "table3", "machines", "msd-spec"} {
		name := name
		t.Run(name, func(t *testing.T) {
			out, _, code := runCLI(t, name)
			if code != 0 {
				t.Fatalf("exit %d", code)
			}
			if len(out) == 0 {
				t.Fatal("no output")
			}
		})
	}
}

func TestCLIFigure(t *testing.T) {
	out, _, code := runCLI(t, "fig1d")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "Wordcount") {
		t.Errorf("missing rows:\n%s", out)
	}
}

func TestCLICSVMode(t *testing.T) {
	out, _, code := runCLI(t, "table1", "-csv")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.HasPrefix(out, "model,cores,") {
		t.Errorf("not CSV:\n%s", out)
	}
}

func TestCLICompare(t *testing.T) {
	out, _, code := runCLI(t, "compare", "-jobs", "8", "-seed", "2")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"E-Ant", "Fair", "Tarazu", "FIFO", "8 MSD jobs, seed 2"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output:\n%s", want, out)
		}
	}
}

// TestCLITraceFormats checks the 'trace' experiment's only output, the
// probe's JSONL stream on stdout: every line is one JSON event in strictly
// increasing seq order, every job is submitted and leaves exactly once,
// and each completed job's phase timeline is ordered. The export flags
// the stream replaced are gone.
func TestCLITraceFormats(t *testing.T) {
	out, errOut, code := runCLI(t, "trace", "-jobs", "3")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	type event struct {
		Seq        *uint64 `json:"seq"`
		At         float64 `json:"at"`
		Kind       string  `json:"kind"`
		Job        int     `json:"job"`
		Failed     bool    `json:"failed"`
		MapsDone   float64 `json:"maps_done"`
		ShuffleEnd float64 `json:"shuffle_end"`
	}
	submits, dones := map[int]int{}, map[int]int{}
	var prev int64 = -1
	for i, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		var ev event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("line %d is not JSON: %v\n%s", i+1, err, line)
		}
		if ev.Seq == nil || int64(*ev.Seq) <= prev {
			t.Fatalf("line %d: seq does not strictly increase after %d: %s", i+1, prev, line)
		}
		prev = int64(*ev.Seq)
		switch ev.Kind {
		case "job_submit":
			submits[ev.Job]++
		case "job_done":
			dones[ev.Job]++
			if !ev.Failed && !(ev.MapsDone <= ev.ShuffleEnd && ev.ShuffleEnd <= ev.At) {
				t.Errorf("job %d timeline out of order: maps_done %v, shuffle_end %v, at %v",
					ev.Job, ev.MapsDone, ev.ShuffleEnd, ev.At)
			}
		}
	}
	if len(submits) != 3 {
		t.Errorf("%d jobs submitted, want 3", len(submits))
	}
	for job, n := range submits {
		if n != 1 || dones[job] != 1 {
			t.Errorf("job %d: %d job_submit and %d job_done events, want one each", job, n, dones[job])
		}
	}
	if len(dones) != len(submits) {
		t.Errorf("%d jobs done, %d submitted", len(dones), len(submits))
	}
	for _, flag := range []string{"-format", "-trace"} {
		if _, _, code := runCLI(t, "trace", "-jobs", "3", flag, "x"); code != 2 {
			t.Errorf("%s: exit %d, want 2", flag, code)
		}
	}
}

func TestCLIUnknownExperiment(t *testing.T) {
	_, errOut, code := runCLI(t, "fig99")
	if code == 0 {
		t.Error("unknown experiment accepted")
	}
	if !strings.Contains(errOut, "unknown experiment") {
		t.Errorf("unhelpful error: %s", errOut)
	}
}

func TestCLINoArgs(t *testing.T) {
	_, errOut, code := runCLI(t)
	if code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
	if !strings.Contains(errOut, "usage:") {
		t.Errorf("no usage text: %s", errOut)
	}
}

func TestCLISweep(t *testing.T) {
	out, _, code := runCLI(t, "sweep", "-jobs", "6", "-seed", "1")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "sweep") || !strings.Contains(out, "0.1") {
		t.Errorf("missing sweep grid:\n%s", out)
	}
}
