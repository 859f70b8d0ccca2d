// Command highrpm-vet runs the project-aware static-analysis rules in
// internal/lint over the module: determinism of the model packages,
// map-iteration-order hygiene, float-equality discipline, the
// goroutine-leak guard in the serving tests, and discarded
// Close/Flush/Write/Sync/Shutdown errors. A lint:ignore directive that
// suppresses nothing, or names no rule, is a finding too.
//
// Exit codes: 0 clean, 1 findings, 2 usage, load or type-check failure.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"highrpm/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("highrpm-vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("C", ".", "run as if started in `dir`")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: highrpm-vet [flags] [package patterns]\n\nFlags:\n")
		fs.PrintDefaults()
		fmt.Fprintf(stderr, "\nRules:\n")
		for _, a := range lint.Default() {
			fmt.Fprintf(stderr, "  %-12s %s\n", a.Name(), a.Doc())
		}
		fmt.Fprintf(stderr, "\nSuppress a finding with //lint:ignore <rule> <reason> on (or directly\nabove) the offending line. A directive that suppresses nothing or names\nan unknown rule is reported under the rule \"lint\".\n")
	}
	if err := fs.Parse(argv); err != nil {
		return 2
	}

	res, err := lint.Run(*dir, fs.Args())
	if err != nil {
		fmt.Fprintf(stderr, "highrpm-vet: %v\n", err)
		return 2
	}
	if len(res.TypeErrors) > 0 {
		for _, e := range res.TypeErrors {
			fmt.Fprintf(stderr, "highrpm-vet: type error: %s\n", e)
		}
		return 2
	}

	absDir, err := filepath.Abs(*dir)
	if err != nil {
		absDir = *dir
	}
	for _, d := range res.Diagnostics {
		if r, err := filepath.Rel(absDir, d.Pos.Filename); err == nil && !strings.HasPrefix(r, "..") {
			d.Pos.Filename = r
		}
		fmt.Fprintln(stdout, d)
	}
	if len(res.Diagnostics) > 0 {
		return 1
	}
	return 0
}
