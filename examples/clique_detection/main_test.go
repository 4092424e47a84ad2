package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunSmoke executes the full example: both unions classify as
// intractable, and every graph's answer through the reduction agrees with
// the direct algorithm.
func TestRunSmoke(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf); err != nil {
		t.Fatalf("run: %v\n%s", err, buf.String())
	}
	out := buf.String()
	if got := strings.Count(out, "union verdict: intractable"); got != 2 {
		t.Errorf("%d intractable verdicts, want 2:\n%s", got, out)
	}
	rows := 0
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "  n=") {
			continue
		}
		rows++
		if !strings.HasSuffix(line, "[MATCH]") {
			t.Errorf("row does not match the direct algorithm: %s", line)
		}
	}
	if rows != 6 {
		t.Errorf("%d graph rows, want 6:\n%s", rows, out)
	}
}
