package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestProbeSinkFlagsRejectedOutsideTrace: the probe flags only make sense
// for the single-run 'trace' experiment, the one that exports probe
// events; every other experiment must reject them loudly rather than run
// probes whose output nobody reads.
func TestProbeSinkFlagsRejectedOutsideTrace(t *testing.T) {
	for _, args := range [][]string{
		{"fig8", "-timeline", filepath.Join(t.TempDir(), "x.json")},
		{"fig8", "-probe-report", filepath.Join(t.TempDir(), "x.json")},
		{"fig8", "-probe-interval", "1"},
		{"failures", "-probe-trails"},
		{"sweep", "-probe-interval", "3"},
	} {
		var errOut strings.Builder
		if code := run(args, io.Discard, &errOut); code != 2 {
			t.Fatalf("%v: exit %d, want 2 (stderr: %s)", args, code, errOut.String())
		}
		for _, want := range []string{"'trace'", "-probe-interval", "-probe-trails", "-timeline", "-probe-report"} {
			if !strings.Contains(errOut.String(), want) {
				t.Errorf("%v: error should name %s: %s", args, want, errOut.String())
			}
		}
	}
}

var errDiskFull = errors.New("disk full")

// fullWriter fails every write.
type fullWriter struct{}

func (fullWriter) Write([]byte) (int, error) { return 0, errDiskFull }

// TestTraceStreamWriteError: the JSON Lines sink keeps its first write
// error, lets the run finish, and reports the error wrapped afterwards.
func TestTraceStreamWriteError(t *testing.T) {
	err := emitTrace(fullWriter{}, 2, 1, "E-Ant", probeSinks{})
	if !errors.Is(err, errDiskFull) || !strings.HasPrefix(err.Error(), "probe: stream: ") {
		t.Fatalf("err = %v, want the wrapped write error", err)
	}
}

// TestTraceTimelineCoversWholeRun: the -timeline file is written from
// every event the run records, so a long run (60 jobs record about
// 92 700 events) shows every job, from t = 0.
func TestTraceTimelineCoversWholeRun(t *testing.T) {
	path := filepath.Join(t.TempDir(), "timeline.json")
	if err := emitTrace(io.Discard, 60, 1, "E-Ant", probeSinks{Timeline: path}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Cat string  `json:"cat"`
			Ph  string  `json:"ph"`
			Ts  float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	spans, first := 0, math.Inf(1)
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" {
			continue
		}
		first = min(first, ev.Ts)
		if ev.Cat == "job_done" && ev.Ph == "X" {
			spans++
		}
	}
	if spans != 60 || first != 0 {
		t.Errorf("timeline has %d job spans from %v µs, want 60 from 0", spans, first)
	}
}

// TestTraceProbeReportKeys pins the top-level keys of the -probe-report
// JSON, in order, so that a change to the report's format shows here.
func TestTraceProbeReportKeys(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.json")
	if _, errOut, code := runCLI(t, "trace", "-jobs", "3", "-probe-report", path); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("report does not open with an object: %v %v", tok, err)
	}
	var keys []string
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, tok.(string))
		var value json.RawMessage
		if err := dec.Decode(&value); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"events", "task_energy_j", "queue_wait_s", "offer_gap_s"}
	if !slices.Equal(keys, want) {
		t.Errorf("report keys %q, want %q", keys, want)
	}
}
