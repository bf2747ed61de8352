package main

import (
	"go/token"
	"strings"
	"testing"

	"eant/internal/analysis"
)

// TestRepoIsClean is the acceptance smoke test: the suite must exit 0 on
// the repository itself. Every rule violation is either fixed or carries
// a justification annotation; a regression here means new code broke a
// determinism or hot-path contract.
func TestRepoIsClean(t *testing.T) {
	var out, errOut strings.Builder
	if code := run(nil, &out, &errOut); code != 0 {
		t.Fatalf("eantlint exit %d on its own repository\nstdout:\n%s\nstderr:\n%s",
			code, out.String(), errOut.String())
	}
	if out.Len() != 0 {
		t.Fatalf("unexpected diagnostics:\n%s", out.String())
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
	for _, format := range []string{"sarif", "json"} {
		var out, errOut strings.Builder
		if code := run([]string{"-format", format}, &out, &errOut); code != 2 {
			t.Fatalf("-format %s: exit %d, want 2", format, code)
		}
	}
}

func TestUnknownPackageRejected(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"internal/nonexistent"}, &out, &errOut); code != 2 {
		t.Fatalf("exit %d, want 2", code)
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
