// Command eantlint is the project's multichecker: it runs the
// internal/analysis suite — rngonly, noclock, maporder, floatsum,
// statsmut, hotalloc, resetstate, ptrretain — over the module and
// reports violations of the simulator's determinism and hot-path
// contracts.
//
// Usage:
//
//	eantlint [-format text|github|json] [-baseline file] [-write-baseline]
//	         [-timing] [packages...]
//
// The whole module is always loaded and analyzed as one unit — the suite
// is interprocedural since PR 9, so facts (taint, hotness) must be
// computed over every package before any one of them can be judged.
// Package arguments only filter which packages' diagnostics are
// *reported*: "eantlint internal/analysis" prints findings in that
// package alone, computed with full whole-program context.
//
// -baseline file suppresses the known findings recorded in file (exact
// file+analyzer+message matches; line numbers are deliberately not part
// of the key so unrelated edits don't invalidate it). New findings still
// fail; entries in the baseline that no longer fire are reported as
// stale on stderr without failing. -write-baseline rewrites the file
// from the current findings.
//
// -format=github emits GitHub Actions workflow annotations
// (::error file=...,line=...); -format=json emits a JSON array of
// {file,line,col,analyzer,message} objects.
//
// -timing prints per-analyzer wall time on stderr, measured through the
// injected clock below — the binary's only wall-clock consumer.
//
// Exit status is 1 if any non-baselined diagnostic was reported, 2 on a
// loading or usage error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"eant/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("eantlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	format := fs.String("format", "text", "diagnostic format: text, github (GitHub Actions annotations) or json")
	list := fs.Bool("analyzers", false, "list the analyzers and exit")
	baselinePath := fs.String("baseline", "", "suppress findings recorded in this baseline file")
	writeBaseline := fs.Bool("write-baseline", false, "rewrite the -baseline file (default lint.baseline) from current findings")
	timing := fs.Bool("timing", false, "print per-analyzer wall time on stderr")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: eantlint [-format text|github|json] [-baseline file] [-write-baseline] [-timing] [packages...]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch *format {
	case "text", "github", "json":
	default:
		fmt.Fprintf(stderr, "eantlint: unknown format %q\n", *format)
		return 2
	}
	if *list {
		for _, a := range analysis.All() {
			fmt.Fprintf(stdout, "%-10s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintf(stderr, "eantlint: %v\n", err)
		return 2
	}
	dirs, err := selectDirs(root, fs.Args())
	if err != nil {
		fmt.Fprintf(stderr, "eantlint: %v\n", err)
		return 2
	}
	all, err := analysis.PackageDirs(root)
	if err != nil {
		fmt.Fprintf(stderr, "eantlint: %v\n", err)
		return 2
	}
	fullModule := len(dirs) == len(all)

	// The whole module is loaded regardless of the package filter: hot
	// roots live in sim/mapreduce/core and taints cross package
	// boundaries, so per-function facts are only correct with every
	// package in the graph.
	loader := analysis.NewLoader()
	pkgs, err := loader.LoadAll(root)
	if err != nil {
		fmt.Fprintf(stderr, "eantlint: %v\n", err)
		return 2
	}
	mod := analysis.NewModule(pkgs)

	var diags []analysis.Diagnostic
	for _, a := range analysis.All() {
		start := wall.Now()
		ds, err := analysis.RunModule(mod, []*analysis.Analyzer{a})
		if err != nil {
			fmt.Fprintf(stderr, "eantlint: %v\n", err)
			return 2
		}
		diags = append(diags, ds...)
		if *timing {
			fmt.Fprintf(stderr, "eantlint: %-10s %8v  %d finding(s)\n",
				a.Name, wall.Since(start).Round(time.Millisecond), len(ds))
		}
	}
	diags = filterDirs(diags, dirs)
	sortDiags(diags)

	if *writeBaseline {
		path := *baselinePath
		if path == "" {
			path = "lint.baseline"
		}
		if err := saveBaseline(path, root, diags); err != nil {
			fmt.Fprintf(stderr, "eantlint: %v\n", err)
			return 2
		}
		fmt.Fprintf(stderr, "eantlint: wrote %d finding(s) to %s\n", len(diags), path)
		return 0
	}

	if *baselinePath != "" {
		base, err := loadBaseline(*baselinePath)
		if err != nil {
			fmt.Fprintf(stderr, "eantlint: %v\n", err)
			return 2
		}
		var stale []string
		diags, stale = base.filter(root, diags)
		// Staleness is only meaningful on a whole-module run: a
		// package-filtered invocation drops out-of-scope findings before
		// baseline matching, so their entries would be falsely reported.
		if fullModule {
			for _, s := range stale {
				fmt.Fprintf(stderr, "eantlint: stale baseline entry (no longer fires): %s\n", s)
			}
		}
	}

	if *format == "json" {
		if err := writeJSON(stdout, root, diags); err != nil {
			fmt.Fprintf(stderr, "eantlint: %v\n", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, formatDiag(*format, root, d))
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "eantlint: %d violation(s)\n", len(diags))
		return 1
	}
	return 0
}

// filterDirs keeps diagnostics whose file lives directly in one of the
// selected package directories.
func filterDirs(diags []analysis.Diagnostic, dirs [][2]string) []analysis.Diagnostic {
	selected := make(map[string]bool, len(dirs))
	for _, dp := range dirs {
		selected[dp[0]] = true
	}
	out := diags[:0]
	for _, d := range diags {
		if selected[filepath.Dir(d.Pos.Filename)] {
			out = append(out, d)
		}
	}
	return out
}

// sortDiags orders findings by (file, line, column, analyzer) — the same
// canonical order analysis.RunModule uses, re-applied here because the
// per-analyzer timing loop concatenates separately-sorted batches.
func sortDiags(diags []analysis.Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// jsonDiag is the -format json shape for one finding.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func writeJSON(w io.Writer, root string, diags []analysis.Diagnostic) error {
	out := make([]jsonDiag, 0, len(diags))
	for _, d := range diags {
		out = append(out, jsonDiag{
			File:     relPath(root, d.Pos.Filename),
			Line:     d.Pos.Line,
			Col:      d.Pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// relPath renders path repo-relative with forward slashes; absolute
// fallback if it is outside root.
func relPath(root, path string) string {
	if r, err := filepath.Rel(root, path); err == nil && !strings.HasPrefix(r, "..") {
		return filepath.ToSlash(r)
	}
	return filepath.ToSlash(path)
}

// formatDiag renders one diagnostic. "github" produces a GitHub Actions
// workflow annotation — the repo-relative file path and line make the
// violation a clickable marker on the pull request. Messages are
// single-line by construction, so no %0A escaping is needed.
func formatDiag(format, root string, d analysis.Diagnostic) string {
	if format == "github" {
		return fmt.Sprintf("::error file=%s,line=%d,col=%d,title=eantlint/%s::%s",
			relPath(root, d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
	}
	return d.String()
}

// moduleRoot locates the enclosing module by walking up to go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above working directory")
		}
		dir = parent
	}
}

// selectDirs resolves the package arguments to (dir, importPath) pairs.
// "./..." or no arguments selects the whole module.
func selectDirs(root string, args []string) ([][2]string, error) {
	all, err := analysis.PackageDirs(root)
	if err != nil {
		return nil, err
	}
	if len(args) == 0 {
		return all, nil
	}
	var out [][2]string
	for _, arg := range args {
		if arg == "./..." || arg == "..." {
			return all, nil
		}
		clean := filepath.ToSlash(filepath.Clean(strings.TrimPrefix(arg, "./")))
		matched := false
		for _, dp := range all {
			rel, err := filepath.Rel(root, dp[0])
			if err != nil {
				continue
			}
			if filepath.ToSlash(rel) == clean || dp[1] == arg {
				out = append(out, dp)
				matched = true
			}
		}
		if !matched {
			return nil, fmt.Errorf("no package matches %q", arg)
		}
	}
	return out, nil
}
