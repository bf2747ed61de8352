// Package analysistest runs analyzers over fixture packages and checks
// their diagnostics against "// want" expectations, mirroring
// golang.org/x/tools/go/analysis/analysistest on top of the project's
// stdlib-only framework.
//
// A fixture is one directory under testdata/src/<name>/ holding a small,
// type-checkable package. Lines that must produce a diagnostic carry a
// trailing comment with one quoted regexp per expected diagnostic:
//
//	time.Now() // want `wall-clock call`
//
// Any diagnostic on a line without a matching expectation, and any
// expectation without a matching diagnostic, fails the test. Fixture
// packages may override their import path with "//eantlint:path", which
// is how path-scoped analyzers (noclock, rngonly's internal/sim rule,
// floatsum's equality rule) are exercised from testdata.
package analysistest

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"eant/internal/analysis"
)

// want is one expectation: a compiled regexp at a file:line, matched off
// against diagnostics as they arrive.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

// wantRE extracts quoted or backquoted regexps from a "// want" comment.
var wantRE = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

// loader is shared across Run calls so dependency packages (fmt, time,
// eant/internal/sim, ...) are type-checked once per test binary. Tests in
// one package run sequentially unless they opt into t.Parallel; Run
// serializes nothing itself.
var loader = analysis.NewLoader()

// Run loads the fixture package in dir, applies the analyzers, and
// reports every mismatch between produced diagnostics and the fixture's
// "// want" expectations.
func Run(t *testing.T, dir string, analyzers ...*analysis.Analyzer) {
	t.Helper()
	pkg, err := loader.LoadDir(dir, "fixture/"+filepath.Base(dir))
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	diags, err := analysis.Run([]*analysis.Package{pkg}, analyzers)
	if err != nil {
		t.Fatalf("running analyzers on %s: %v", dir, err)
	}

	wants, err := parseWants(dir)
	if err != nil {
		t.Fatal(err)
	}

	for _, d := range diags {
		if !claim(wants, filepath.Base(d.Pos.Filename), d.Pos.Line, d.Message) {
			t.Errorf("unexpected diagnostic at %s:%d: %s (%s)",
				filepath.Base(d.Pos.Filename), d.Pos.Line, d.Message, d.Analyzer)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %s, got none", w.file, w.line, w.raw)
		}
	}
}

// claim marks the first unmatched expectation on (file, line) whose
// regexp matches msg.
func claim(wants []*want, file string, line int, msg string) bool {
	for _, w := range wants {
		if w.matched || w.file != file || w.line != line {
			continue
		}
		if w.re.MatchString(msg) {
			w.matched = true
			return true
		}
	}
	return false
}

// parseWants scans every fixture file for "// want" comments.
func parseWants(dir string) ([]*want, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var wants []*want
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		for i, line := range strings.Split(string(data), "\n") {
			_, spec, ok := strings.Cut(line, "// want ")
			if !ok {
				continue
			}
			quoted := wantRE.FindAllString(spec, -1)
			if len(quoted) == 0 {
				return nil, fmt.Errorf("%s:%d: malformed want comment %q", e.Name(), i+1, spec)
			}
			for _, q := range quoted {
				var pattern string
				if strings.HasPrefix(q, "`") {
					pattern = strings.Trim(q, "`")
				} else {
					unq := q[1 : len(q)-1]
					pattern = strings.ReplaceAll(strings.ReplaceAll(unq, `\"`, `"`), `\\`, `\`)
				}
				re, err := regexp.Compile(pattern)
				if err != nil {
					return nil, fmt.Errorf("%s:%d: bad want pattern %s: %v", e.Name(), i+1, q, err)
				}
				wants = append(wants, &want{file: e.Name(), line: i + 1, re: re, raw: q})
			}
		}
	}
	return wants, nil
}
