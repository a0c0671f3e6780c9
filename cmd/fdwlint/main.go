// Command fdwlint runs FDW's determinism and invariant analyzers
// (internal/lint) over the given package patterns. It is stdlib-only
// and is wired into scripts/check.sh and the CI lint job.
//
// Usage:
//
//	fdwlint [-json] [-github] [-only analyzer,...] [-list] [packages...]
//
// With no patterns it analyzes ./... . Exit status is 0 when the tree
// is clean, 1 when diagnostics were reported, and 2 when the analysis
// itself failed (e.g. the tree does not compile).
//
// -github emits each diagnostic additionally as a GitHub Actions
// ::error workflow command, so the CI lint job annotates the offending
// lines directly in the pull-request diff.
//
// Diagnostics print as "file:line analyzer: message"; a line can be
// suppressed with a reasoned directive:
//
//	//lint:allow <analyzer> <reason>
//
// See DESIGN.md §9 for the analyzer catalogue.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"fdw/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// githubAnnotation renders a diagnostic as a GitHub Actions ::error
// workflow command, which the runner turns into an inline annotation
// on the pull-request diff. Properties and message get the escaping
// the workflow-command grammar requires.
func githubAnnotation(d lint.Diagnostic, base string) string {
	file := d.File
	if rel, err := filepath.Rel(base, file); err == nil && !strings.HasPrefix(rel, "..") {
		file = rel
	}
	return fmt.Sprintf("::error file=%s,line=%d,col=%d,title=fdwlint %s::%s",
		githubEscapeProp(file), d.Line, d.Col, githubEscapeProp(d.Analyzer),
		githubEscapeData(d.Message))
}

// githubEscapeData escapes a workflow-command message.
func githubEscapeData(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	s = strings.ReplaceAll(s, "\n", "%0A")
	return s
}

// githubEscapeProp escapes a workflow-command property value, which
// additionally reserves ':' and ','.
func githubEscapeProp(s string) string {
	s = githubEscapeData(s)
	s = strings.ReplaceAll(s, ":", "%3A")
	s = strings.ReplaceAll(s, ",", "%2C")
	return s
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fdwlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit machine-readable JSON diagnostics")
	github := fs.Bool("github", false, "also emit GitHub Actions ::error workflow commands")
	only := fs.String("only", "", "comma-separated subset of analyzers to run")
	list := fs.Bool("list", false, "list analyzers and exit")
	dir := fs.String("C", "", "change to this directory before analyzing")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *only != "" {
		byName := map[string]*lint.Analyzer{}
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		analyzers = analyzers[:0]
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(stderr, "fdwlint: unknown analyzer %q (try -list)\n", name)
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	loader := &lint.Loader{Dir: *dir}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "fdwlint: %v\n", err)
		return 2
	}
	for _, p := range pkgs {
		for _, terr := range p.TypeErrors {
			fmt.Fprintf(stderr, "fdwlint: %s: %v\n", p.ImportPath, terr)
		}
		if len(p.TypeErrors) > 0 {
			return 2
		}
	}

	diags, err := lint.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintf(stderr, "fdwlint: %v\n", err)
		return 2
	}
	base := *dir
	if base == "" {
		base, _ = os.Getwd()
	} else if abs, err := filepath.Abs(base); err == nil {
		base = abs
	}
	if *jsonOut {
		out := make([]lint.Diagnostic, 0, len(diags))
		for _, d := range diags {
			if rel, err := filepath.Rel(base, d.File); err == nil && !strings.HasPrefix(rel, "..") {
				d.File = rel
			}
			out = append(out, d)
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(stderr, "fdwlint: %v\n", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d.Format(base))
			if *github {
				fmt.Fprintln(stdout, githubAnnotation(d, base))
			}
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(stderr, "fdwlint: %d diagnostic(s)\n", len(diags))
		}
		return 1
	}
	return 0
}
