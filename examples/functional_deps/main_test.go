package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunSmoke executes the full example and checks its load-bearing
// output: the FD makes the extension free-connex, the enumeration yields
// every answer, and an instance violating the FD is rejected.
func TestRunSmoke(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf); err != nil {
		t.Fatalf("run: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{
		"without FDs: acyclic non-free-connex",
		"FD-extension free-connex: true",
		"16 answers.",
		"after violating the FD: fd: R1: 0 -> 1 violated",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}
