package experiments

import (
	"os"
	"strings"
	"testing"
)

// TestRunAllQuick executes every experiment in quick mode and checks the
// structural invariants: every table renders, every verification column
// agrees, and the markdown document is complete.
func TestRunAllQuick(t *testing.T) {
	tables := RunAll(Config{Quick: true})
	if len(tables) != 14 {
		t.Fatalf("got %d tables, want 14", len(tables))
	}
	ids := map[string]bool{}
	for _, tb := range tables {
		if tb.ID == "" || tb.Title == "" || tb.Paper == "" || tb.Claim == "" {
			t.Errorf("table %q missing metadata", tb.ID)
		}
		if ids[tb.ID] {
			t.Errorf("duplicate table id %s", tb.ID)
		}
		ids[tb.ID] = true
		for _, row := range tb.Rows {
			if len(row) != len(tb.Columns) {
				t.Errorf("%s: row width %d, columns %d", tb.ID, len(row), len(tb.Columns))
			}
			for _, cell := range row {
				if strings.Contains(cell, "MISMATCH") {
					t.Errorf("%s: verification failed in row %v", tb.ID, row)
				}
			}
		}
		for _, n := range tb.Notes {
			if strings.Contains(n, "FAILED") || strings.Contains(n, "MISMATCH") {
				t.Errorf("%s: %s", tb.ID, n)
			}
		}
	}
	var sb strings.Builder
	if err := RenderMarkdown(&sb, tables, Config{Quick: true}); err != nil {
		t.Fatalf("RenderMarkdown: %v", err)
	}
	doc := sb.String()
	for id := range ids {
		if !strings.Contains(doc, "## "+id+" ") {
			t.Errorf("markdown missing section %s", id)
		}
	}
	if !strings.Contains(doc, "paper vs. measured") {
		t.Errorf("markdown missing preamble")
	}
}

func TestGalleryTableAllAgree(t *testing.T) {
	tb := E9ClassifyGallery(Config{Quick: true})
	for _, row := range tb.Rows {
		if row[len(row)-1] != "✓" {
			t.Errorf("gallery row disagrees: %v", row)
		}
	}
	if len(tb.Rows) < 12 {
		t.Errorf("gallery has %d rows", len(tb.Rows))
	}
}

func TestHelperFormatting(t *testing.T) {
	if itoa(42) != "42" {
		t.Errorf("itoa broken")
	}
	if check(true) != "✓" || check(false) == "✓" {
		t.Errorf("check broken")
	}
	if nsPer(0, 0) != "-" {
		t.Errorf("nsPer zero-division guard broken")
	}
	if shorten("abc", 2) == "abc" {
		t.Errorf("shorten broken")
	}
}

// regenerate is the command that rewrites the committed document.
const regenerate = "go run ./cmd/ucq-experiments -quick -o EXPERIMENTS.md"

// TestExperimentsDocCurrent pins the committed EXPERIMENTS.md to a fresh
// quick run: every heading, claim, note and non-timing cell must match
// exactly. Timing cells are machine-specific, so for them the test only
// checks that a value is present. A column counts as timing when its
// header names a time unit — "(ms)", "(µs)", "(ns)" or "ns/" — so a new
// timing column must carry its unit in the header, or this test will
// demand that its values repeat.
func TestExperimentsDocCurrent(t *testing.T) {
	var sb strings.Builder
	if err := RenderMarkdown(&sb, RunAll(Config{Quick: true}), Config{Quick: true}); err != nil {
		t.Fatalf("RenderMarkdown: %v", err)
	}
	committed, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatalf("%v; regenerate with %s", err, regenerate)
	}
	got := strings.Split(sb.String(), "\n")
	want := strings.Split(string(committed), "\n")
	if len(got) != len(want) {
		t.Fatalf("EXPERIMENTS.md has %d lines, a fresh run %d; regenerate with %s", len(want), len(got), regenerate)
	}
	var header []string // the current table's column headers
	row := 0            // line within the current table: header, delimiter, body
	for i := range got {
		g, w := got[i], want[i]
		if !strings.HasPrefix(g, "|") || !strings.HasPrefix(w, "|") {
			header, row = nil, 0
			if g != w {
				t.Errorf("line %d:\n got  %q\n want %q", i+1, g, w)
			}
			continue
		}
		gc, wc := tableCells(g), tableCells(w)
		if row == 0 {
			header = gc
		}
		row++
		// Header, delimiter and body rows must agree on the cell count, or
		// the table does not render.
		if len(gc) != len(header) || len(wc) != len(header) {
			t.Errorf("line %d: %d and %d cells, want %d:\n got  %q\n want %q", i+1, len(gc), len(wc), len(header), g, w)
			continue
		}
		for c := range gc {
			timing := row > 2 && timingColumn(header[c])
			switch {
			case timing && (gc[c] == "" || wc[c] == ""):
				t.Errorf("line %d: empty timing cell %q", i+1, header[c])
			case !timing && gc[c] != wc[c]:
				t.Errorf("line %d, column %q: got %q, want %q", i+1, header[c], gc[c], wc[c])
			}
		}
	}
	if t.Failed() {
		t.Logf("EXPERIMENTS.md is stale; regenerate with %s", regenerate)
	}
}

// timingColumn reports whether a column header names a time unit.
func timingColumn(header string) bool {
	for _, unit := range []string{"(ms)", "(µs)", "(ns)", "ns/"} {
		if strings.Contains(header, unit) {
			return true
		}
	}
	return false
}

// tableCells splits a markdown table row into its trimmed cells. An
// escaped pipe (\|) belongs to its cell; every other pipe separates.
func tableCells(row string) []string {
	var cells []string
	var cell strings.Builder
	for i := 0; i < len(row); i++ {
		switch {
		case row[i] == '\\' && i+1 < len(row) && row[i+1] == '|':
			cell.WriteString(`\|`)
			i++
		case row[i] == '|':
			cells = append(cells, strings.TrimSpace(cell.String()))
			cell.Reset()
		default:
			cell.WriteByte(row[i])
		}
	}
	// The leading and trailing pipes delimit nothing.
	if len(cells) > 0 {
		cells = cells[1:]
	}
	return cells
}
