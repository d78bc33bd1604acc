// bcbpt-lint machine-enforces this repo's invariants — determinism of
// the simulation packages, flood hot-path allocation discipline, and
// fleet lock hygiene — as a suite of custom static analyzers
// (internal/lint) built on the standard library's go/ast + go/types, so
// the tool needs no module dependencies and no network.
//
// Two modes share the same analyzers:
//
//	bcbpt-lint ./...                     standalone: loads packages via
//	                                     `go list -export` build-cache data
//	go vet -vettool=$(pwd)/bin/bcbpt-lint ./...
//	                                     vet unit protocol: cmd/go hands the
//	                                     tool one *.cfg per package and
//	                                     caches clean results
//
// Exit status: 0 clean, 1 operational error, 2 diagnostics reported.
// Suppress a finding with //bcbptlint:allow <analyzer> — <reason> on the
// offending line or the line above; the reason is mandatory and an
// unused or malformed directive is itself a finding.
package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
	"repro/internal/lint/analysis"
)

func main() {
	args := os.Args[1:]
	// `go vet` handshakes: -V=full for the tool's cache ID, -flags for
	// the analyzer flag inventory (none), then one <unit>.cfg per
	// package.
	if len(args) == 1 {
		switch {
		case args[0] == "-V=full" || args[0] == "-V":
			printVersion()
			return
		case args[0] == "-flags":
			fmt.Println("[]")
			return
		case strings.HasSuffix(args[0], ".cfg"):
			os.Exit(unitcheck(args[0]))
		}
	}
	os.Exit(standalone(args))
}

// printVersion emits the `name version devel ... buildID=` line cmd/go
// parses to fingerprint the tool for vet result caching. Hashing the
// executable means a rebuilt bcbpt-lint invalidates prior clean verdicts.
func printVersion() {
	progname := strings.TrimSuffix(filepath.Base(os.Args[0]), ".exe")
	id := "unknown"
	if exe, err := os.Executable(); err == nil {
		if data, err := os.ReadFile(exe); err == nil {
			id = fmt.Sprintf("%x", sha256.Sum256(data))
		}
	}
	fmt.Printf("%s version devel comments-go-here buildID=%s\n", progname, id)
}

// standalone loads the requested packages (default ./...) through the
// build cache and runs the suite.
func standalone(args []string) int {
	fs := flag.NewFlagSet("bcbpt-lint", flag.ExitOnError)
	ghOut := fs.Bool("github", false, "emit findings as GitHub workflow-command annotations instead of text")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: bcbpt-lint [-github] [packages]\n\nAnalyzers:\n")
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(fs.Output(), "  %-10s %s\n", a.Name, a.Doc)
		}
	}
	if err := fs.Parse(args); err != nil {
		return 1
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := analysis.LoadPatterns(".", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bcbpt-lint: %v\n", err)
		return 1
	}
	var found []analysis.Diagnostic
	for _, pkg := range pkgs {
		diags, err := lint.Check(pkg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bcbpt-lint: %v\n", err)
			return 1
		}
		found = append(found, diags...)
	}
	if *ghOut {
		writeGitHub(os.Stdout, found)
	} else {
		for _, d := range found {
			fmt.Println(d)
		}
	}
	if len(found) > 0 {
		fmt.Fprintf(os.Stderr, "bcbpt-lint: %d finding(s)\n", len(found))
		return 2
	}
	return 0
}
