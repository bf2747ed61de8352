package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"text/tabwriter"
)

// runs holds the records of one side of a comparison.
type runs struct {
	values map[string]map[string][]float64 // workload → metric → one value per run
	count  map[string]int                  // runs per workload
	failed map[string]int                  // failed units per workload
}

// readRuns reads a file of -json records, one per line.
func readRuns(path string) (*runs, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := &runs{values: make(map[string]map[string][]float64), count: make(map[string]int), failed: make(map[string]int)}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if rec.Workload == "" {
			return nil, fmt.Errorf("%s:%d: record names no workload", path, line)
		}
		if r.values[rec.Workload] == nil {
			r.values[rec.Workload] = make(map[string][]float64)
		}
		for _, d := range endToEnd {
			if m, ok := rec.Metrics[d.Name]; ok {
				r.values[rec.Workload][d.Name] = append(r.values[rec.Workload][d.Name], m.Value)
			}
		}
		r.count[rec.Workload]++
		r.failed[rec.Workload] += rec.Failed
		if !rec.Correct && rec.Failed == 0 {
			r.failed[rec.Workload]++ // a reference mismatch fails the run, not a unit
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// compareFiles prints, per workload and end-to-end metric, each side's
// quartiles, the change in median and a verdict against the metric's bound.
func compareFiles(w io.Writer, basePath, changePath string) error {
	base, err := readRuns(basePath)
	if err != nil {
		return err
	}
	change, err := readRuns(changePath)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbase q1\tmedian\tq3\tchange q1\tmedian\tq3\tdelta\tbound\tverdict")
	for _, wl := range workloads {
		if base.count[wl.name] == 0 || change.count[wl.name] == 0 {
			continue
		}
		fmt.Fprintf(tw, "%s\t%d runs, %d failed units\t\t\t\t\t%d runs, %d failed units\n",
			wl.name, base.count[wl.name], base.failed[wl.name], change.count[wl.name], change.failed[wl.name])
		for _, d := range endToEnd {
			b, c := base.values[wl.name][d.Name], change.values[wl.name][d.Name]
			if len(b) == 0 || len(c) == 0 {
				continue
			}
			bq, cq := quartiles(b), quartiles(c)
			fmt.Fprintf(tw, "\t%s\t%s\t%.6g\t%.6g\t%.6g\t%.6g\t%.6g\t%.6g\t%+.2f%%\t%.0f%%\t%s\n",
				d.Name, d.Unit, bq[0], bq[1], bq[2], cq[0], cq[1], cq[2],
				100*(cq[1]-bq[1])/bq[1], 100*d.Bound, verdict(d, b, c))
		}
	}
	return tw.Flush()
}

// verdict judges the change's runs against the base's for one metric.
//   - unresolved: either side's quartile spread, as a share of its median,
//     exceeds the bound — unless every change run beats every base run
//     (better) or loses to every one (worse);
//   - worse: the change's median is worse by more than the bound;
//   - better: it is better by more than the base's own spread;
//   - unchanged otherwise.
func verdict(d metricDef, base, change []float64) string {
	bq, cq := quartiles(base), quartiles(change)
	if bq[1] == 0 || cq[1] == 0 {
		return "unresolved"
	}
	// worsening is how much worse the change's median reads, as a share
	// of the base median; negative when it reads better.
	worsening := (cq[1] - bq[1]) / bq[1]
	lower := d.Better == "lower"
	if !lower {
		worsening = -worsening
	}
	baseSpread, changeSpread := (bq[2]-bq[0])/bq[1], (cq[2]-cq[0])/cq[1]
	if max(baseSpread, changeSpread) > d.Bound {
		above := slices.Min(change) > slices.Max(base) // every change run reads higher
		below := slices.Max(change) < slices.Min(base)
		switch {
		case lower && below || !lower && above:
			return "better"
		case lower && above || !lower && below:
			return "worse"
		}
		return "unresolved"
	}
	switch {
	case worsening > d.Bound:
		return "worse"
	case -worsening > baseSpread:
		return "better"
	}
	return "unchanged"
}

// quartiles returns the first quartile, median and third quartile of
// values, computed as Python's statistics.quantiles(values, n=4) does
// (the default "exclusive" method).
func quartiles(values []float64) [3]float64 {
	s := slices.Clone(values)
	slices.Sort(s)
	n := len(s)
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - 4*j)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}
