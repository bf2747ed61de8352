package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGoldenProbesOnOff pins the observability layer's headline guarantee:
// running an experiment with probes fully enabled (per-heartbeat machine
// sampling plus pheromone-trail snapshots) produces byte-identical output
// to the probe-free run, and both match the committed golden. fig8 covers
// the steady-state E-Ant decision loop; failures covers the
// crash/recovery/blacklist paths, which record through the same probe.
func TestGoldenProbesOnOff(t *testing.T) {
	for _, name := range []string{"fig8", "failures"} {
		name := name
		t.Run(name, func(t *testing.T) {
			var off strings.Builder
			if code := run([]string{name}, &off, io.Discard); code != 0 {
				t.Fatalf("probes off: exit %d", code)
			}
			var on strings.Builder
			if code := run([]string{name, "-probe-interval", "1", "-probe-trails"}, &on, io.Discard); code != 0 {
				t.Fatalf("probes on: exit %d", code)
			}
			if on.String() != off.String() {
				t.Errorf("probes perturbed %s output\nprobes on:\n%s\nprobes off:\n%s",
					name, on.String(), off.String())
			}
			want, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
			if err != nil {
				t.Fatalf("missing golden: %v", err)
			}
			if on.String() != string(want) {
				t.Errorf("probes-on output differs from committed golden for %s", name)
			}
		})
	}
}

// TestProbeSinkFlagsRejectedOutsideTrace: the file sinks only make sense
// for the single-run 'trace' experiment; sweeps must reject them loudly
// rather than silently dropping data.
func TestProbeSinkFlagsRejectedOutsideTrace(t *testing.T) {
	var errOut strings.Builder
	if code := run([]string{"fig8", "-timeline", filepath.Join(t.TempDir(), "x.json")}, io.Discard, &errOut); code != 2 {
		t.Fatalf("exit %d, want 2 (stderr: %s)", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "trace") {
		t.Errorf("error should point at the 'trace' experiment: %s", errOut.String())
	}
}
