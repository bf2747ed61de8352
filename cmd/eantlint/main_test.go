package main

import (
	"encoding/json"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"eant/internal/analysis"
)

// repoBaseline locates the committed lint.baseline at the module root —
// tests run from cmd/eantlint, so the path must be anchored, not cwd-relative.
func repoBaseline(t *testing.T) string {
	t.Helper()
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Join(root, "lint.baseline")
}

// TestRepoIsClean is the acceptance smoke test: the suite must exit 0 on
// the repository itself, modulo the committed baseline. Every rule
// violation is either fixed, carries a justification annotation, or is
// recorded as known debt in lint.baseline; a regression here means new
// code broke a determinism or hot-path contract.
func TestRepoIsClean(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-baseline", repoBaseline(t)}, &out, &errOut); code != 0 {
		t.Fatalf("eantlint exit %d on its own repository\nstdout:\n%s\nstderr:\n%s",
			code, out.String(), errOut.String())
	}
	if out.Len() != 0 {
		t.Fatalf("unexpected diagnostics:\n%s", out.String())
	}
	if strings.Contains(errOut.String(), "stale baseline entry") {
		t.Fatalf("committed baseline has stale entries:\n%s", errOut.String())
	}
}

func TestAnalyzersFlagListsSuite(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-analyzers"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	listed := map[string]bool{}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	for _, line := range lines {
		if fields := strings.Fields(line); len(fields) > 0 {
			listed[fields[0]] = true
		}
	}
	all := analysis.All()
	if len(lines) != len(all) {
		t.Errorf("-analyzers printed %d lines for %d analyzers:\n%s", len(lines), len(all), out.String())
	}
	for _, a := range all {
		if !listed[a.Name] {
			t.Errorf("-analyzers output missing %s:\n%s", a.Name, out.String())
		}
	}
}

func TestUnknownFormatRejected(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-format", "sarif"}, &out, &errOut); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

func TestUnknownPackageRejected(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"internal/nonexistent"}, &out, &errOut); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

// TestJSONFormatEmpty: a clean (baselined) run in JSON mode must emit an
// empty array, not null — consumers index into the result unconditionally.
func TestJSONFormatEmpty(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-format", "json", "-baseline", repoBaseline(t)}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	var diags []jsonDiag
	if err := json.Unmarshal([]byte(out.String()), &diags); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out.String())
	}
	if diags == nil || len(diags) != 0 {
		t.Fatalf("want empty array, got %q", out.String())
	}
}

func TestWriteJSON(t *testing.T) {
	var sb strings.Builder
	err := writeJSON(&sb, "/repo", []analysis.Diagnostic{{
		Pos:      token.Position{Filename: "/repo/internal/core/eant.go", Line: 42, Column: 7},
		Message:  "wall-clock call time.Now in simulation package",
		Analyzer: "noclock",
	}})
	if err != nil {
		t.Fatal(err)
	}
	var diags []jsonDiag
	if err := json.Unmarshal([]byte(sb.String()), &diags); err != nil {
		t.Fatalf("not JSON: %v", err)
	}
	want := jsonDiag{File: "internal/core/eant.go", Line: 42, Col: 7, Analyzer: "noclock", Message: "wall-clock call time.Now in simulation package"}
	if len(diags) != 1 || diags[0] != want {
		t.Fatalf("got %+v, want %+v", diags, want)
	}
}

// TestBaselineRoundTrip exercises save → load → filter: baselined findings
// are consumed, new findings survive, and unconsumed entries surface as
// stale.
func TestBaselineRoundTrip(t *testing.T) {
	root := t.TempDir()
	path := filepath.Join(root, "lint.baseline")
	known := analysis.Diagnostic{
		Pos:      token.Position{Filename: filepath.Join(root, "a.go"), Line: 3, Column: 1},
		Message:  "make allocates in hot function",
		Analyzer: "hotalloc",
	}
	if err := saveBaseline(path, root, []analysis.Diagnostic{known, known}); err != nil {
		t.Fatal(err)
	}
	b, err := loadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}

	// The same finding on a different line still matches: line numbers are
	// not part of the key.
	moved := known
	moved.Pos.Line = 99
	fresh := analysis.Diagnostic{
		Pos:      token.Position{Filename: filepath.Join(root, "b.go"), Line: 1, Column: 1},
		Message:  "string concatenation allocates",
		Analyzer: "hotalloc",
	}
	got, stale := b.filter(root, []analysis.Diagnostic{moved, fresh})
	if len(got) != 1 || got[0] != fresh {
		t.Fatalf("fresh findings = %+v, want just the unbaselined one", got)
	}
	if len(stale) != 1 || !strings.Contains(stale[0], "a.go") {
		t.Fatalf("stale = %q, want the one unconsumed entry", stale)
	}
}

func TestBaselineMalformedRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.baseline")
	if err := os.WriteFile(path, []byte("# comment ok\nno tabs here\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadBaseline(path); err == nil || !strings.Contains(err.Error(), "malformed") {
		t.Fatalf("err = %v, want malformed-entry error", err)
	}
}

// fakeClock steps a fixed interval per Since call, so -timing output is
// deterministic under test.
type fakeClock struct{ step time.Duration }

func (fakeClock) Now() time.Time                  { return time.Unix(0, 0) }
func (f fakeClock) Since(time.Time) time.Duration { return f.step }

// TestTimingUsesInjectedClock swaps the wall clock for a fake and checks
// the per-analyzer timing lines report the injected duration — proving the
// binary's only wall-clock read goes through the seam.
func TestTimingUsesInjectedClock(t *testing.T) {
	old := wall
	wall = fakeClock{step: 1500 * time.Millisecond}
	defer func() { wall = old }()

	var out, errOut strings.Builder
	if code := run([]string{"-timing", "-baseline", repoBaseline(t)}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	lines := 0
	for _, line := range strings.Split(errOut.String(), "\n") {
		if strings.Contains(line, "1.5s") {
			lines++
		}
	}
	if want := len(analysis.All()); lines != want {
		t.Fatalf("%d timing lines report the fake duration, want %d\nstderr:\n%s", lines, want, errOut.String())
	}
}

func TestFormatDiagGithubAnnotations(t *testing.T) {
	d := analysis.Diagnostic{
		Pos:      token.Position{Filename: "/repo/internal/core/eant.go", Line: 42, Column: 7},
		Message:  "wall-clock call time.Now in simulation package",
		Analyzer: "noclock",
	}
	got := formatDiag("github", "/repo", d)
	want := "::error file=internal/core/eant.go,line=42,col=7,title=eantlint/noclock::wall-clock call time.Now in simulation package"
	if got != want {
		t.Fatalf("github format:\n got %q\nwant %q", got, want)
	}
	if text := formatDiag("text", "/repo", d); !strings.Contains(text, "eant.go:42:7") || !strings.Contains(text, "(noclock)") {
		t.Fatalf("text format %q missing position or analyzer", text)
	}
}
