package analysis_test

import (
	"path/filepath"
	"testing"

	"eant/internal/analysis"
	"eant/internal/analysis/analysistest"
)

// fixture maps one testdata package to the analyzer it exercises. Every
// analyzer has at least one fixture with a firing ("// want") line, so a
// silently dead rule fails the suite.
var fixtures = []struct {
	dir      string
	analyzer *analysis.Analyzer
}{
	{"rngonly_bad", analysis.RngOnly},
	{"rngonly_sim", analysis.RngOnly},
	{"noclock_bad", analysis.NoClock},
	{"noclock_parallel", analysis.NoClock},
	{"noclock_cmd", analysis.NoClock},
	{"maporder", analysis.MapOrder},
	{"floatsum_accum", analysis.FloatSum},
	{"floatsum_eq", analysis.FloatSum},
}

func TestFixtures(t *testing.T) {
	for _, f := range fixtures {
		t.Run(f.dir+"/"+f.analyzer.Name, func(t *testing.T) {
			analysistest.Run(t, filepath.Join("testdata", "src", f.dir), f.analyzer)
		})
	}
}

// TestSuiteComplete pins the suite roster: adding an analyzer without
// wiring a fixture (or dropping one from All) is a test failure.
func TestSuiteComplete(t *testing.T) {
	covered := map[string]bool{}
	for _, f := range fixtures {
		covered[f.analyzer.Name] = true
	}
	all := analysis.All()
	if len(all) != 4 {
		t.Fatalf("All() has %d analyzers, want 4", len(all))
	}
	for _, a := range all {
		if !covered[a.Name] {
			t.Errorf("analyzer %s has no fixture", a.Name)
		}
		if a.Doc == "" {
			t.Errorf("analyzer %s has no Doc", a.Name)
		}
	}
}
