package main

import (
	"strings"
	"testing"
)

// TestReplay runs the example five times in one process and requires
// byte-identical output: Go randomizes map iteration order on every range,
// so output that leaked it would differ between runs.
func TestReplay(t *testing.T) {
	var runs [5]strings.Builder
	for i := range runs {
		if err := run(&runs[i]); err != nil {
			t.Fatal(err)
		}
		if i > 0 && runs[i].String() != runs[0].String() {
			t.Fatalf("run %d printed\n%s\nrun 0 printed\n%s", i, runs[i].String(), runs[0].String())
		}
	}
}
