// Command dsre-lint runs the repository's static-analysis suite (package
// internal/lint): determinism, confighash, statscoverage, exhaustive,
// lockcheck, ctxcheck and schemadrift.
//
// Usage:
//
//	dsre-lint [-C dir] [-json] [-fix-report] [./...]
//	dsre-lint [-C dir] -write-schemas [-schemas-dir dir]
//
// -write-schemas regenerates the wire-schema goldens that the schemadrift
// analyzer checks (by default under internal/lint/schemas/), removing
// goldens whose packages no longer declare schemas.  -fix-report prints a
// one-screen triage table (diagnostics per analyzer per package) instead of
// the raw diagnostic stream.
//
// Exit status: 0 when the tree is clean, 1 when diagnostics were found (or
// a configured anchor is missing, which would silently disable a check),
// 2 on usage or load errors.
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
	"text/tabwriter"

	"repro/internal/lint"
)

// Schema identifies the -json wire format.
const Schema = "dsre-lint/v1"

type jsonOutput struct {
	Schema  string      `json:"schema"`
	Diags   []lint.Diag `json:"diagnostics"`
	Missing []string    `json:"missing_anchors,omitempty"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dsre-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("C", ".", "directory inside the module to lint")
	jsonOut := fs.Bool("json", false, "emit machine-readable "+Schema+" JSON")
	fixReport := fs.Bool("fix-report", false, "print a per-analyzer/per-package triage table instead of raw diagnostics")
	writeSchemas := fs.Bool("write-schemas", false, "regenerate the wire-schema goldens and exit")
	schemasDir := fs.String("schemas-dir", "", "golden output directory for -write-schemas (default <module>/"+lint.DefaultConfig().SchemaDir+")")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: dsre-lint [-C dir] [-json] [-fix-report] [./...]\n")
		fmt.Fprintf(stderr, "       dsre-lint [-C dir] -write-schemas [-schemas-dir dir]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	for _, pat := range fs.Args() {
		// The suite always audits the whole module; only whole-module
		// patterns are meaningful.
		if pat != "./..." && pat != "." && pat != "all" {
			fmt.Fprintf(stderr, "dsre-lint: unsupported pattern %q (the suite lints the whole module; use ./...)\n", pat)
			return 2
		}
	}
	root, err := findModuleRoot(*dir)
	if err != nil {
		fmt.Fprintf(stderr, "dsre-lint: %v\n", err)
		return 2
	}
	mod, err := lint.Load(root)
	if err != nil {
		fmt.Fprintf(stderr, "dsre-lint: %v\n", err)
		return 2
	}
	if *writeSchemas {
		out := *schemasDir
		if out == "" {
			out = filepath.Join(root, filepath.FromSlash(lint.DefaultConfig().SchemaDir))
		}
		return runWriteSchemas(mod, out, stdout, stderr)
	}
	res := lint.Run(mod, lint.DefaultConfig())
	if *fixReport {
		printFixReport(stdout, res)
		if len(res.Diags) > 0 || len(res.Missing) > 0 {
			return 1
		}
		return 0
	}
	if *jsonOut {
		diags := res.Diags
		if diags == nil {
			diags = []lint.Diag{} // a clean tree serializes as [], not null
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(jsonOutput{Schema: Schema, Diags: diags, Missing: res.Missing}); err != nil {
			fmt.Fprintf(stderr, "dsre-lint: %v\n", err)
			return 2
		}
	} else {
		for _, d := range res.Diags {
			fmt.Fprintln(stdout, d)
		}
		for _, m := range res.Missing {
			fmt.Fprintf(stderr, "dsre-lint: missing anchor: %s (its checks were skipped)\n", m)
		}
	}
	if len(res.Diags) > 0 || len(res.Missing) > 0 {
		return 1
	}
	return 0
}

// runWriteSchemas regenerates the schema goldens in dir, deleting goldens
// whose schema packages are gone.
func runWriteSchemas(mod *lint.Module, dir string, stdout, stderr io.Writer) int {
	schemas, err := lint.Schemas(mod)
	if err != nil {
		fmt.Fprintf(stderr, "dsre-lint: %v\n", err)
		return 2
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(stderr, "dsre-lint: %v\n", err)
		return 2
	}
	names := make([]string, 0, len(schemas))
	for name := range schemas {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := os.WriteFile(filepath.Join(dir, name), schemas[name], 0o644); err != nil {
			fmt.Fprintf(stderr, "dsre-lint: %v\n", err)
			return 2
		}
		fmt.Fprintf(stdout, "dsre-lint: wrote %s\n", name)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		fmt.Fprintf(stderr, "dsre-lint: %v\n", err)
		return 2
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		if _, keep := schemas[e.Name()]; !keep {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				fmt.Fprintf(stderr, "dsre-lint: %v\n", err)
				return 2
			}
			fmt.Fprintf(stdout, "dsre-lint: removed stale %s\n", e.Name())
		}
	}
	return 0
}

// printFixReport renders the one-screen triage table.
func printFixReport(stdout io.Writer, res *lint.Result) {
	if len(res.Diags) == 0 && len(res.Missing) == 0 {
		fmt.Fprintln(stdout, "dsre-lint: clean (0 diagnostics)")
		return
	}
	rows := lint.Summarize(res.Diags)
	pkgs := map[string]bool{}
	for _, r := range rows {
		pkgs[r.Package] = true
	}
	fmt.Fprintf(stdout, "dsre-lint: %d diagnostics in %d packages\n\n", len(res.Diags), len(pkgs))
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "  ANALYZER\tPACKAGE\tCOUNT\n")
	for _, r := range rows {
		fmt.Fprintf(tw, "  %s\t%s\t%d\n", r.Analyzer, r.Package, r.Count)
	}
	tw.Flush()
	for _, m := range res.Missing {
		fmt.Fprintf(stdout, "\n  missing anchor: %s (its checks were skipped)", m)
	}
	if len(res.Missing) > 0 {
		fmt.Fprintln(stdout)
	}
	fmt.Fprintln(stdout, "\nrun dsre-lint without -fix-report for the full diagnostic stream")
}

// findModuleRoot walks up from dir to the nearest directory with a go.mod.
func findModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := abs; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("no go.mod found in or above %s", abs)
		}
		d = parent
	}
}
