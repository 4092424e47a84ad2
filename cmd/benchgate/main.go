// benchgate turns `go test -bench` output into a machine-readable
// BENCH_*.json snapshot and gates benchmark regressions against a committed
// baseline snapshot.
//
// Parse mode — aggregate one or more -count runs per benchmark (median of
// the per-run ns/op) into a JSON snapshot:
//
//	go test -run '^$' -bench 'Dedup|Union' -count=6 -benchmem ./... | tee bench.txt
//	benchgate -parse bench.txt -out BENCH_pr2.json -note "PR 2 @ $(git rev-parse --short HEAD)"
//
// Gate mode — compare a fresh snapshot against the baseline and fail (exit
// 1) when the geometric-mean ns/op ratio over the matched benchmarks
// exceeds the threshold:
//
//	benchgate -baseline BENCH_baseline.json -current BENCH_pr2.json -threshold 1.15 -filter 'Dedup|Union'
//
// Only benchmarks present in both snapshots are compared, so adding or
// removing benchmarks never trips the gate; renaming one does, on purpose.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
)

// Result is one benchmark's aggregated measurement.
type Result struct {
	Name        string  `json:"name"`
	Runs        int     `json:"runs"`
	NsPerOp     float64 `json:"ns_per_op"`
	BPerOp      float64 `json:"b_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
}

// Snapshot is the BENCH_*.json file format.
type Snapshot struct {
	Schema int    `json:"schema"`
	Note   string `json:"note,omitempty"`
	// GOMAXPROCS is the core count the benchmarks ran with, recovered from
	// the -<N> name suffix. Parallel benchmark timings are only comparable
	// between snapshots taken at the same count — the gate skips them
	// otherwise instead of reporting phantom regressions.
	GOMAXPROCS int `json:"gomaxprocs,omitempty"`
	// CPU echoes the `cpu:` line of the bench output, for provenance.
	CPU        string   `json:"cpu,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

// benchLine matches one `go test -bench` result line; the trailing
// -<GOMAXPROCS> suffix is stripped from the name so snapshots compare
// across machines (and recorded in the snapshot header so the gate knows
// when they should not be compared).
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(-\d+)?\s+(\d+)\s+([0-9.]+) ns/op(.*)$`)

// cpuLine matches the `cpu:` provenance line go test prints once.
var cpuLine = regexp.MustCompile(`^cpu:\s+(.+)$`)

var (
	bPerOpRe      = regexp.MustCompile(`([0-9.]+) B/op`)
	allocsPerOpRe = regexp.MustCompile(`([0-9]+) allocs/op`)
)

// sample is one run's measurements for one benchmark.
type sample struct {
	ns, b, allocs float64
}

// Parse reads `go test -bench` output and aggregates the per-benchmark
// samples (median across runs).
func Parse(r io.Reader) (*Snapshot, error) {
	samples := make(map[string][]sample)
	var order []string
	gomaxprocs := 0
	cpu := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		if cm := cpuLine.FindStringSubmatch(sc.Text()); cm != nil {
			cpu = cm[1]
			continue
		}
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		name := m[1]
		if m[2] != "" {
			if n, err := strconv.Atoi(m[2][1:]); err == nil {
				gomaxprocs = n
			}
		}
		ns, err := strconv.ParseFloat(m[4], 64)
		if err != nil {
			return nil, fmt.Errorf("benchgate: bad ns/op in %q: %w", sc.Text(), err)
		}
		s := sample{ns: ns}
		if bm := bPerOpRe.FindStringSubmatch(m[5]); bm != nil {
			s.b, _ = strconv.ParseFloat(bm[1], 64)
		}
		if am := allocsPerOpRe.FindStringSubmatch(m[5]); am != nil {
			s.allocs, _ = strconv.ParseFloat(am[1], 64)
		}
		if _, seen := samples[name]; !seen {
			order = append(order, name)
		}
		samples[name] = append(samples[name], s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(order) == 0 {
		return nil, fmt.Errorf("benchgate: no benchmark lines found")
	}
	snap := &Snapshot{Schema: 1, GOMAXPROCS: gomaxprocs, CPU: cpu}
	for _, name := range order {
		ss := samples[name]
		snap.Benchmarks = append(snap.Benchmarks, Result{
			Name:        name,
			Runs:        len(ss),
			NsPerOp:     median(ss, func(s sample) float64 { return s.ns }),
			BPerOp:      median(ss, func(s sample) float64 { return s.b }),
			AllocsPerOp: median(ss, func(s sample) float64 { return s.allocs }),
		})
	}
	return snap, nil
}

// median aggregates one field across samples.
func median(ss []sample, get func(sample) float64) float64 {
	vals := make([]float64, len(ss))
	for i, s := range ss {
		vals[i] = get(s)
	}
	sort.Float64s(vals)
	n := len(vals)
	if n%2 == 1 {
		return vals[n/2]
	}
	return (vals[n/2-1] + vals[n/2]) / 2
}

// Comparison is the outcome of gating current against baseline.
type Comparison struct {
	// Matched lists the per-benchmark ratios (current/baseline ns/op),
	// worst first.
	Matched []Ratio
	// Geomean is the geometric mean of the matched ratios.
	Geomean float64
	// Skipped lists benchmarks excluded from the gate because their
	// timings depend on the core count and the two snapshots were taken at
	// different GOMAXPROCS.
	Skipped []string
}

// parallelBench matches the benchmarks whose ns/op scales with the core
// count — the parallel, work-stealing, auto-mode, distributed
// fan-out and concurrent wire-throughput experiments.
// Comparing their timings across machines with different parallelism
// measures the hardware, not the code, so the gate skips them (with a
// warning) when the snapshots' GOMAXPROCS differ.
var parallelBench = regexp.MustCompile(`^BenchmarkE1[2-9]|^BenchmarkE2[0-2]`)

// Ratio is one benchmark's regression factor.
type Ratio struct {
	Name    string
	Base    float64
	Current float64
	Factor  float64
}

// Compare matches the two snapshots' benchmarks (optionally restricted by
// filter) and computes the regression ratios.
func Compare(baseline, current *Snapshot, filter *regexp.Regexp) (*Comparison, error) {
	base := make(map[string]Result, len(baseline.Benchmarks))
	for _, r := range baseline.Benchmarks {
		base[r.Name] = r
	}
	// Core counts are comparable when both snapshots recorded one and they
	// agree; legacy snapshots without the field gate everything, as before.
	coresDiffer := baseline.GOMAXPROCS > 0 && current.GOMAXPROCS > 0 &&
		baseline.GOMAXPROCS != current.GOMAXPROCS
	cmp := &Comparison{}
	logSum := 0.0
	for _, cur := range current.Benchmarks {
		if filter != nil && !filter.MatchString(cur.Name) {
			continue
		}
		b, ok := base[cur.Name]
		if !ok || b.NsPerOp <= 0 || cur.NsPerOp <= 0 {
			continue
		}
		if coresDiffer && parallelBench.MatchString(cur.Name) {
			cmp.Skipped = append(cmp.Skipped, cur.Name)
			continue
		}
		f := cur.NsPerOp / b.NsPerOp
		cmp.Matched = append(cmp.Matched, Ratio{Name: cur.Name, Base: b.NsPerOp, Current: cur.NsPerOp, Factor: f})
		logSum += math.Log(f)
	}
	if len(cmp.Matched) == 0 {
		if len(cmp.Skipped) > 0 {
			// Everything the filter selected is core-count-sensitive and the
			// counts differ: nothing to gate, which is a warning, not a
			// failure.
			cmp.Geomean = 1
			return cmp, nil
		}
		return nil, fmt.Errorf("benchgate: no benchmarks matched between baseline and current")
	}
	cmp.Geomean = math.Exp(logSum / float64(len(cmp.Matched)))
	sort.Slice(cmp.Matched, func(i, j int) bool { return cmp.Matched[i].Factor > cmp.Matched[j].Factor })
	return cmp, nil
}

func readSnapshot(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("benchgate: %s: %w", path, err)
	}
	return &s, nil
}

func main() {
	parse := flag.String("parse", "", "bench output file to parse ('-' for stdin)")
	out := flag.String("out", "", "JSON snapshot to write (with -parse)")
	note := flag.String("note", "", "free-form provenance note stored in the snapshot")
	baseline := flag.String("baseline", "", "baseline snapshot (gate mode)")
	current := flag.String("current", "", "current snapshot (gate mode)")
	threshold := flag.Float64("threshold", 1.15, "max allowed geomean ns/op ratio")
	filterStr := flag.String("filter", "", "regexp restricting the gated benchmarks")
	flag.Parse()

	switch {
	case *parse != "":
		var r io.Reader = os.Stdin
		if *parse != "-" {
			f, err := os.Open(*parse)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			r = f
		}
		snap, err := Parse(r)
		if err != nil {
			fatal(err)
		}
		snap.Note = *note
		data, err := json.MarshalIndent(snap, "", "  ")
		if err != nil {
			fatal(err)
		}
		data = append(data, '\n')
		if *out == "" {
			os.Stdout.Write(data)
			return
		}
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("benchgate: wrote %d benchmarks to %s\n", len(snap.Benchmarks), *out)

	case *baseline != "" && *current != "":
		var filter *regexp.Regexp
		if *filterStr != "" {
			var err error
			filter, err = regexp.Compile(*filterStr)
			if err != nil {
				fatal(err)
			}
		}
		bs, err := readSnapshot(*baseline)
		if err != nil {
			fatal(err)
		}
		cs, err := readSnapshot(*current)
		if err != nil {
			fatal(err)
		}
		cmp, err := Compare(bs, cs, filter)
		if err != nil {
			fatal(err)
		}
		if len(cmp.Skipped) > 0 {
			fmt.Printf("benchgate: WARNING: baseline ran at GOMAXPROCS=%d, current at %d; skipping %d core-count-sensitive benchmarks:\n",
				bs.GOMAXPROCS, cs.GOMAXPROCS, len(cmp.Skipped))
			for _, name := range cmp.Skipped {
				fmt.Printf("    skip %s\n", name)
			}
		}
		fmt.Printf("benchgate: %d benchmarks gated, geomean ratio %.3f (threshold %.2f)\n",
			len(cmp.Matched), cmp.Geomean, *threshold)
		for _, r := range cmp.Matched {
			marker := " "
			if r.Factor > *threshold {
				marker = "!"
			}
			fmt.Printf("  %s %-60s %12.1f -> %12.1f ns/op  x%.3f\n", marker, r.Name, r.Base, r.Current, r.Factor)
		}
		if cmp.Geomean > *threshold {
			fmt.Printf("benchgate: FAIL: geomean regression %.3f exceeds %.2f\n", cmp.Geomean, *threshold)
			os.Exit(1)
		}
		fmt.Println("benchgate: OK")

	default:
		fmt.Fprintln(os.Stderr, "benchgate: need either -parse, or -baseline and -current")
		flag.Usage()
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchgate:", err)
	os.Exit(2)
}
