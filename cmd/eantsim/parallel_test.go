package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestParallelMatchesSequential runs every experiment of 'all', and the
// 'sweep' and 'compare' grids, on one worker and on four. Their stdout
// must be byte-identical: which worker runs a cell, and which cell
// finishes first, must never reach a result. Fig 10 is the case to
// watch, since its tick span comes from its first cell, seed 1's FIFO
// baseline, not from whichever cell reports a tick first.
func TestParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 'all' twice; skipped in -short mode")
	}
	for _, args := range [][]string{{"all"}, {"sweep", "-jobs", "10"}, {"compare", "-jobs", "10"}} {
		t.Run(args[0], func(t *testing.T) {
			outputs := make([]string, 2)
			for i, workers := range []string{"1", "4"} {
				out, errOut, code := runCLI(t, append(append([]string(nil), args...), "-parallel", workers)...)
				if code != 0 {
					t.Fatalf("-parallel %s: exit %d: %s", workers, code, errOut)
				}
				outputs[i] = out
			}
			if outputs[0] != outputs[1] {
				t.Errorf("-parallel 4 output differs from -parallel 1:\n--- 1 ---\n%s--- 4 ---\n%s", outputs[0], outputs[1])
			}
		})
	}
}

// TestCLICompareSeed checks that 'compare' runs the seed it names: -seed 1
// prints the recorded table, and -seed 2 another one, not just another
// title.
func TestCLICompareSeed(t *testing.T) {
	tables := make([]string, 2)
	for i, seed := range []string{"1", "2"} {
		out, errOut, code := runCLI(t, "compare", "-seed", seed)
		if code != 0 {
			t.Fatalf("-seed %s: exit %d: %s", seed, code, errOut)
		}
		tables[i] = out
	}
	want, err := os.ReadFile(filepath.Join("testdata", "compare-seed1.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if tables[0] != string(want) {
		t.Errorf("-seed 1 output differs from testdata/compare-seed1.golden:\ngot:\n%s\nwant:\n%s", tables[0], want)
	}
	_, body1, _ := strings.Cut(tables[0], "\n")
	_, body2, _ := strings.Cut(tables[1], "\n")
	if body1 == body2 {
		t.Errorf("-seed 2 prints the same table as -seed 1:\n%s", tables[1])
	}
}
