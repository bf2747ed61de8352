package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/expected.json from the current simulator")

// benchmarkFile is the root BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestBenchmarkFileMatchesProgram holds BENCHMARK.json and the program's
// workload and metric tables equal.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	b := readBenchmarkFile(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if !slices.Equal(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\nBENCHMARK.json %+v\nprogram        %+v", b.EndToEnd, endToEnd)
	}
	if !slices.Equal(b.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\nBENCHMARK.json %+v\nprogram        %+v", b.PerLayer, perLayer)
	}
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the program defaults to %d", b.RunSeconds, defaultSeconds)
	}
	if !slices.Equal(b.Paths, []string{"bench"}) {
		t.Errorf("paths %v", b.Paths)
	}
}

// TestSmoke runs every workload for two units with tracing, at the pinned
// seed, and checks the outcome and its printed forms.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the simulator")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			out, err := measure(w, config{seed: defaultSeed, trace: true, units: 2, setups: 1})
			if err != nil {
				t.Fatal(err)
			}
			// Two units each of the untraced, traced and probe passes.
			if out.attempted != 6 || out.failed != 0 || !out.correct {
				t.Errorf("attempted %d, failed %d, correct %t", out.attempted, out.failed, out.correct)
			}
			for _, defs := range [][]metricDef{endToEnd, perLayer} {
				for _, d := range defs {
					if m, ok := out.metrics[d.Name]; !ok || m.Unit != d.Unit {
						t.Errorf("metric %s: got %+v, want unit %s", d.Name, m, d.Unit)
					}
				}
			}
			for _, keep := range [][]metricDef{endToEnd, perLayer} {
				var buf bytes.Buffer
				if err := writeResult(&buf, w.name, defaultSeed, out, true, keep); err != nil {
					t.Fatal(err)
				}
				checkResultLine(t, lastLine(buf.Bytes()), keep)
			}
		})
	}
}

// checkResultLine parses a printed JSON line and checks it carries exactly
// the result keys and the metrics in keep.
func checkResultLine(t *testing.T, line []byte, keep []metricDef) {
	t.Helper()
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(line, &raw); err != nil {
		t.Fatalf("last line %q: %v", line, err)
	}
	var keys []string
	for k := range raw {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	if want := []string{"attempted", "correct", "failed", "metrics"}; !slices.Equal(keys, want) {
		t.Errorf("keys %v, want %v", keys, want)
	}
	var res result
	if err := json.Unmarshal(line, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Metrics) != len(keep) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(keep))
	}
	for _, d := range keep {
		if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit {
			t.Errorf("metric %s: got %+v, want unit %s", d.Name, m, d.Unit)
		}
	}
}

// TestUpdateExpected rewrites testdata/expected.json with -update.
func TestUpdateExpected(t *testing.T) {
	if !*update {
		t.Skip("rewrites testdata/expected.json only with -update")
	}
	exp := expectedFile{Seed: defaultSeed, Workloads: make(map[string][]string)}
	for _, w := range workloads {
		wd, _, err := setUp(w, defaultSeed, w.units, 0)
		if err != nil {
			t.Fatal(err)
		}
		refs, err := references(wd)
		if err != nil {
			t.Fatal(err)
		}
		for _, unit := range refs {
			for _, d := range unit {
				exp.Workloads[w.name] = append(exp.Workloads[w.name], d.hash())
			}
		}
	}
	out, err := json.MarshalIndent(exp, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join("testdata", "expected.json"), append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(data, n=4) in Python 3.
	for _, c := range []struct {
		data []float64
		want [3]float64
	}{
		{[]float64{4, 1, 3, 2}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5}, [3]float64{5, 5, 5}},
	} {
		if got := quartiles(c.data); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.data, got, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "run_ms_p50", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "sim_tasks_per_s", Unit: "tasks/s", Better: "higher", Bound: 0.10}
	base := []float64{100, 101, 102, 99, 100}
	for _, c := range []struct {
		def          metricDef
		base, change []float64
		want         string
	}{
		{lower, base, []float64{101, 100, 99, 102, 100}, "unchanged"},
		{lower, base, []float64{120, 121, 119, 122, 120}, "worse"},
		{lower, base, []float64{90, 91, 89, 92, 90}, "better"},
		{higher, base, []float64{85, 86, 84, 87, 85}, "worse"},
		{higher, base, []float64{120, 121, 119, 122, 120}, "better"},
		{lower, base, []float64{60, 100, 140, 80, 120}, "unresolved"},
		// A wide spread, but every change run beats every base run.
		{lower, []float64{100, 130, 160, 115, 145}, []float64{40, 70, 95, 55, 85}, "better"},
	} {
		if got := verdict(c.def, c.base, c.change); got != c.want {
			t.Errorf("verdict(%s, %v, %v) = %s, want %s", c.def.Better, c.base, c.change, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50s ...float64) string {
		var buf bytes.Buffer
		for _, v := range p50s {
			rec := record{Workload: "wide-eant", Seed: 7, result: result{Correct: true, Attempted: 10,
				Metrics: metricSet{"run_ms_p50": {Value: v, Unit: "ms"}}}}
			line, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(append(line, '\n'))
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var out bytes.Buffer
	if err := compareFiles(&out, write("base.jsonl", 40, 41, 40, 39, 40), write("change.jsonl", 50, 51, 50, 49, 50)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "run_ms_p50") || !strings.Contains(out.String(), "worse") {
		t.Errorf("comparison does not report the regression:\n%s", out.String())
	}
}
