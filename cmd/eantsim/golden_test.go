package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from current output")

// goldenExperiments are the figure and sweep outputs that must stay
// byte-identical across refactors: the assignment fast paths (incremental
// aggregates, per-interval trail indices) are exact rewrites of the scans
// they replace, so any byte of drift here is a behavior change, not a
// performance change.
var goldenExperiments = []string{
	"fig8", "fig10", "fig11a", "fig11b", "fig12a", "fig12b", "failures",
}

func TestGoldenExperimentOutputs(t *testing.T) {
	for _, name := range goldenExperiments {
		name := name
		t.Run(name, func(t *testing.T) {
			var out strings.Builder
			if code := run([]string{name}, &out, io.Discard); code != 0 {
				t.Fatalf("exit %d", code)
			}
			path := filepath.Join("testdata", name+".golden")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create): %v", err)
			}
			if got := out.String(); got != string(want) {
				t.Errorf("output differs from %s (run with -update only if the change is intentional)\ngot:\n%s\nwant:\n%s",
					path, got, want)
			}
		})
	}
}
