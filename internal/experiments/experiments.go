// Package experiments regenerates every table and figure of the
// reproduction (EXPERIMENTS.md): constant-delay measurements for the
// paper's upper bounds, forward runs of the lower-bound reductions, the
// classification gallery, and the structural figures. cmd/ucq-experiments
// renders the output; the committed EXPERIMENTS.md is its quick-mode run,
// and TestExperimentsDocCurrent keeps the two in step. This package is the
// paper's claims only: performance is measured by the bench/ harness.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// Config controls experiment sizes.
type Config struct {
	// Quick shrinks every workload for smoke runs.
	Quick bool
}

// Table is one experiment's result.
type Table struct {
	ID      string
	Title   string
	Paper   string // the paper artifact reproduced
	Claim   string // the claim being checked
	Columns []string
	Rows    [][]string
	Notes   []string
}

// RunAll executes every experiment.
func RunAll(cfg Config) []Table {
	return []Table{
		E1FreeConnexCQ(cfg),
		E2UnionTractable(cfg),
		E3Example2Union(cfg),
		E4Example13Recursive(cfg),
		E5MatMulShape(cfg),
		E6TriangleDecide(cfg),
		E7FourCliqueGadget(cfg),
		E8UnionGuardK4(cfg),
		E9ClassifyGallery(cfg),
		E10CheatersLemma(cfg),
		E11FunctionalDependencies(cfg),
		F1ConnexTree(cfg),
		F2Example2Extension(cfg),
		F3CliqueGadget(cfg),
	}
}

// RenderMarkdown writes the full EXPERIMENTS.md document.
func RenderMarkdown(w io.Writer, tables []Table, cfg Config) error {
	var b strings.Builder
	b.WriteString("# EXPERIMENTS — paper vs. measured\n\n")
	b.WriteString("Reproduction record for Carmeli & Kröll, *On the Enumeration Complexity of\n")
	b.WriteString("Unions of Conjunctive Queries* (PODS 2019). The paper is theoretical; its\n")
	b.WriteString("artifacts are worked examples, theorems and figures. Each experiment below\n")
	b.WriteString("reproduces one artifact: upper bounds are *measured* (preprocessing and\n")
	b.WriteString("delay as input scales), lower bounds are *executed* (the hardness reduction\n")
	b.WriteString("runs forward and is checked against a direct solver), and the\n")
	b.WriteString("classification table compares the classifier's verdict against the paper's\n")
	b.WriteString("on every worked example. Absolute times are machine-specific; the *shape*\n")
	b.WriteString("(what stays flat, what grows, who wins) is the reproduced result.\n\n")
	if cfg.Quick {
		b.WriteString("*(quick mode: reduced workload sizes)*\n\n")
	}
	b.WriteString("Regenerate with `go run ./cmd/ucq-experiments -quick -o EXPERIMENTS.md`\n")
	b.WriteString("(drop `-quick` for the full sizes). Performance is measured separately by\n")
	b.WriteString("the `bench/` harness (see `bench/README.md`).\n\n")
	for _, t := range tables {
		b.WriteString(fmt.Sprintf("## %s — %s\n\n", t.ID, t.Title))
		b.WriteString(fmt.Sprintf("**Paper artifact:** %s\n\n", t.Paper))
		b.WriteString(fmt.Sprintf("**Claim:** %s\n\n", t.Claim))
		if len(t.Columns) > 0 {
			b.WriteString(tableRow(t.Columns))
			sep := make([]string, len(t.Columns))
			for i := range sep {
				sep[i] = "---"
			}
			b.WriteString(tableRow(sep))
			for _, row := range t.Rows {
				b.WriteString(tableRow(row))
			}
			b.WriteString("\n")
		}
		for _, n := range t.Notes {
			b.WriteString("- " + n + "\n")
		}
		if len(t.Notes) > 0 {
			b.WriteString("\n")
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// tableRow renders one markdown table row. A bare "|" inside a cell would
// end the cell early, so it is escaped.
func tableRow(cells []string) string {
	escaped := make([]string, len(cells))
	for i, c := range cells {
		escaped[i] = strings.ReplaceAll(c, "|", `\|`)
	}
	return "| " + strings.Join(escaped, " | ") + " |\n"
}

// --- small helpers shared by the experiment files ---

func ms(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d.Microseconds())/1000.0)
}

func us(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d.Nanoseconds())/1000.0)
}

func nsPer(d time.Duration, n int) string {
	if n == 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f", float64(d.Nanoseconds())/float64(n))
}

func itoa(n int) string { return fmt.Sprintf("%d", n) }

func check(ok bool) string {
	if ok {
		return "✓"
	}
	return "✗ MISMATCH"
}
