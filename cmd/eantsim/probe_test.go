package main

import (
	"errors"
	"io"
	"path/filepath"
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
