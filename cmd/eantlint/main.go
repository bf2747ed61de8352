// Command eantlint is the project's multichecker: it runs the
// internal/analysis suite — rngonly, noclock, maporder, floatsum — over
// the module and reports violations of the simulator's determinism
// contracts.
//
// Usage:
//
//	eantlint [-format text|github] [-analyzers] [packages...]
//
// Every analyzer checks one package at a time. The module is loaded and
// type-checked once, dependencies first; package arguments select which
// packages are analyzed ("eantlint internal/analysis" checks that package
// alone), and no arguments or "./..." selects them all.
//
// -format=github emits GitHub Actions workflow annotations
// (::error file=...,line=...). -analyzers lists the suite and exits.
//
// Every finding fails: a rule violation is either fixed or carries its
// analyzer's justification annotation at the site. Exit status is 1 if
// any diagnostic was reported, 2 on a loading or usage error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"eant/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("eantlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	format := fs.String("format", "text", "diagnostic format: text or github (GitHub Actions annotations)")
	list := fs.Bool("analyzers", false, "list the analyzers and exit")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: eantlint [-format text|github] [-analyzers] [packages...]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch *format {
	case "text", "github":
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

	pkgs, err := analysis.NewLoader().LoadAll(root)
	if err != nil {
		fmt.Fprintf(stderr, "eantlint: %v\n", err)
		return 2
	}
	diags, err := analysis.Run(keepDirs(pkgs, dirs), analysis.All())
	if err != nil {
		fmt.Fprintf(stderr, "eantlint: %v\n", err)
		return 2
	}
	for _, d := range diags {
		fmt.Fprintln(stdout, formatDiag(*format, root, d))
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "eantlint: %d violation(s)\n", len(diags))
		return 1
	}
	return 0
}

// keepDirs returns the packages that live in one of the selected
// package directories.
func keepDirs(pkgs []*analysis.Package, dirs [][2]string) []*analysis.Package {
	selected := make(map[string]bool, len(dirs))
	for _, dp := range dirs {
		selected[dp[0]] = true
	}
	var out []*analysis.Package
	for _, p := range pkgs {
		if selected[p.Dir] {
			out = append(out, p)
		}
	}
	return out
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
