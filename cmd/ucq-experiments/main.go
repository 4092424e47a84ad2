// ucq-experiments regenerates EXPERIMENTS.md: it runs every experiment of
// the reproduction (constant-delay measurements, forward lower-bound
// reductions, the classification gallery, and the structural figures) and
// renders the results as markdown.
//
// Usage:
//
//	ucq-experiments [-quick] [-o EXPERIMENTS.md]
//
// The committed EXPERIMENTS.md is `ucq-experiments -quick -o EXPERIMENTS.md`.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
)

func main() {
	quick := flag.Bool("quick", false, "run reduced workload sizes")
	out := flag.String("o", "", "write the markdown to a file instead of stdout")
	flag.Parse()

	cfg := experiments.Config{Quick: *quick}
	if err := write(*out, experiments.RunAll(cfg), cfg); err != nil {
		fmt.Fprintln(os.Stderr, "ucq-experiments:", err)
		os.Exit(2)
	}
}

// write renders the document to path, or to stdout when path is empty. A
// file is only complete once Close succeeds, so its error is reported too.
func write(path string, tables []experiments.Table, cfg experiments.Config) error {
	if path == "" {
		return experiments.RenderMarkdown(os.Stdout, tables, cfg)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := experiments.RenderMarkdown(f, tables, cfg); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
