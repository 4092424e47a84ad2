package main

import (
	"math"
	"regexp"
	"strings"
	"testing"
)

const sampleOutput = `
goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkE12UnionParallelVsSequential/sequential-8         	      10	 100000000 ns/op	   53000 answers/op	 1000000 B/op	     100 allocs/op
BenchmarkE12UnionParallelVsSequential/sequential-8         	      10	 120000000 ns/op	   53000 answers/op	 1100000 B/op	     110 allocs/op
BenchmarkE12UnionParallelVsSequential/sequential-8         	      10	 110000000 ns/op	   53000 answers/op	 1050000 B/op	     105 allocs/op
BenchmarkAblationDedupTupleSetVsStringKey/tupleset-8       	    2000	    500000 ns/op	  300000 B/op	       5 allocs/op
BenchmarkAblationDedupTupleSetVsStringKey/tupleset-8       	    2000	    520000 ns/op	  300000 B/op	       5 allocs/op
PASS
ok  	repro	12.345s
`

func TestParseAggregatesMedians(t *testing.T) {
	snap, err := Parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(snap.Benchmarks))
	}
	seq := snap.Benchmarks[0]
	if seq.Name != "BenchmarkE12UnionParallelVsSequential/sequential" {
		t.Fatalf("name = %q (GOMAXPROCS suffix not stripped?)", seq.Name)
	}
	if seq.Runs != 3 || seq.NsPerOp != 110000000 {
		t.Fatalf("sequential aggregate = %+v, want 3 runs, median 110000000", seq)
	}
	ts := snap.Benchmarks[1]
	if ts.Runs != 2 || ts.NsPerOp != 510000 {
		t.Fatalf("tupleset aggregate = %+v, want 2 runs, mean-of-middle 510000", ts)
	}
	if ts.BPerOp != 300000 || ts.AllocsPerOp != 5 {
		t.Fatalf("tupleset memory metrics = %+v", ts)
	}
	if snap.GOMAXPROCS != 8 {
		t.Errorf("GOMAXPROCS = %d, want 8 (from the -8 name suffix)", snap.GOMAXPROCS)
	}
	if snap.CPU != "Intel(R) Xeon(R) Processor @ 2.10GHz" {
		t.Errorf("CPU = %q, want the cpu: line", snap.CPU)
	}
}

func TestParseRejectsEmptyInput(t *testing.T) {
	if _, err := Parse(strings.NewReader("no benchmarks here\n")); err == nil {
		t.Fatal("empty input accepted")
	}
}

func snapOf(pairs map[string]float64) *Snapshot {
	s := &Snapshot{Schema: 1}
	for name, ns := range pairs {
		s.Benchmarks = append(s.Benchmarks, Result{Name: name, Runs: 1, NsPerOp: ns})
	}
	return s
}

func TestCompareGeomeanAndThreshold(t *testing.T) {
	base := snapOf(map[string]float64{"A": 100, "B": 200, "OnlyInBase": 5})
	cur := snapOf(map[string]float64{"A": 110, "B": 220, "OnlyInCurrent": 7})
	cmp, err := Compare(base, cur, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.Matched) != 2 {
		t.Fatalf("matched %d benchmarks, want 2 (unmatched ones must be skipped)", len(cmp.Matched))
	}
	if math.Abs(cmp.Geomean-1.10) > 1e-9 {
		t.Fatalf("geomean = %f, want 1.10", cmp.Geomean)
	}
}

func TestCompareFilter(t *testing.T) {
	base := snapOf(map[string]float64{"BenchmarkDedup": 100, "BenchmarkOther": 100})
	cur := snapOf(map[string]float64{"BenchmarkDedup": 100, "BenchmarkOther": 900})
	cmp, err := Compare(base, cur, regexp.MustCompile("Dedup"))
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.Matched) != 1 || cmp.Matched[0].Name != "BenchmarkDedup" {
		t.Fatalf("filter leaked: %+v", cmp.Matched)
	}
	if cmp.Geomean != 1.0 {
		t.Fatalf("geomean = %f, want 1.0 (the 9x regression is outside the gated set)", cmp.Geomean)
	}
}

func TestCompareNoOverlapErrors(t *testing.T) {
	base := snapOf(map[string]float64{"A": 1})
	cur := snapOf(map[string]float64{"B": 1})
	if _, err := Compare(base, cur, nil); err == nil {
		t.Fatal("disjoint snapshots accepted")
	}
}

// TestCompareSkipsParallelOnCoreMismatch pins the honesty rule: when the
// snapshots ran at different GOMAXPROCS, the core-count-sensitive
// benchmarks (E12–E19) are skipped — their "regression" would measure the
// machine — while scalar benchmarks still gate.
func TestCompareSkipsParallelOnCoreMismatch(t *testing.T) {
	mk := func(procs int, parallelNs float64) *Snapshot {
		s := snapOf(map[string]float64{
			"BenchmarkE12UnionParallelVsSequential/parallel": parallelNs,
			"BenchmarkE18AutoModeSelection/auto":             parallelNs,
			"BenchmarkE1FreeConnexCQ":                        100,
		})
		s.GOMAXPROCS = procs
		return s
	}

	// Same core count: everything gates, nothing is skipped.
	cmp, err := Compare(mk(8, 100), mk(8, 100), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.Skipped) != 0 || len(cmp.Matched) != 3 {
		t.Fatalf("same cores: matched %d skipped %v, want 3/none", len(cmp.Matched), cmp.Skipped)
	}

	// Different core counts: the parallel pair is skipped even though its
	// ratio (8x) would blow any threshold; the scalar bench still gates.
	cmp, err = Compare(mk(8, 100), mk(2, 800), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.Skipped) != 2 {
		t.Fatalf("differing cores: skipped %v, want the two E1x parallel benchmarks", cmp.Skipped)
	}
	if len(cmp.Matched) != 1 || cmp.Matched[0].Name != "BenchmarkE1FreeConnexCQ" {
		t.Fatalf("differing cores: matched %+v, want only the scalar benchmark", cmp.Matched)
	}
	if cmp.Geomean != 1.0 {
		t.Fatalf("geomean = %f, want 1.0", cmp.Geomean)
	}

	// Legacy snapshots without the field keep gating everything.
	legacyBase := mk(0, 100)
	legacyCur := mk(8, 100)
	cmp, err = Compare(legacyBase, legacyCur, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.Skipped) != 0 || len(cmp.Matched) != 3 {
		t.Fatalf("legacy snapshot: matched %d skipped %v, want 3/none", len(cmp.Matched), cmp.Skipped)
	}
}

// TestCompareAllSkippedIsNotAnError pins that a gate whose entire filtered
// set is skipped for core mismatch warns instead of failing.
func TestCompareAllSkippedIsNotAnError(t *testing.T) {
	mk := func(procs int) *Snapshot {
		s := snapOf(map[string]float64{"BenchmarkE16WorkStealing/x": 100})
		s.GOMAXPROCS = procs
		return s
	}
	cmp, err := Compare(mk(8), mk(4), nil)
	if err != nil {
		t.Fatalf("all-skipped comparison errored: %v", err)
	}
	if len(cmp.Skipped) != 1 || cmp.Geomean != 1.0 {
		t.Fatalf("all-skipped comparison = %+v", cmp)
	}
}
