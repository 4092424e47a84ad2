// Command bench is the repository's benchmark: six workloads through the
// public repro package and a real ucq-serve child, seven end-to-end metrics
// from a window with tracing off, and per-layer metrics from a traced
// window. README.md in this directory says what each number means and which
// workload it should move on; BENCHMARK.json at the repository root is the
// machine-readable contract.
//
// Usage, from the repository root:
//
//	go run ./bench                          every workload, 20 s + 6 s windows
//	go run ./bench -workload serve-short    one workload
//	go run ./bench -repeat 10               ten runs, seeds seed..seed+9, and
//	                                        the spread of every end-to-end
//	                                        metric against its bound
//	go run ./bench -workload cold-bind -seed 3 -seconds 10 -trace 0
//	                                        one timed window; the last line
//	                                        of output is the result as JSON
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// workloadDef names a workload and records why it exists.
type workloadDef struct {
	Name   string
	Why    string
	server bool
}

var workloadDefs = []workloadDef{
	{"cold-bind", "library; every op parses, prepares, binds and drains Example 2 over mostly dangling edges, so Theorem 12 preprocessing is ~90% of the op and enumeration gains do not show", false},
	{"enum-union", "library; the dataset is bound once and every op drains ~180k answers of Example 2 with overlapping branches, so enumeration and dedup are the op and bind gains do not show", false},
	{"serve-stream-ndjson", "ucq-serve, 2 connections; warm 200k-answer dataset query in the default encoding, plan and bind caches always hit, so encode + socket + enumeration do the work", true},
	{"serve-stream-binary", "the same traffic with Accept: application/x-ucq-bin; a change that helps one encoding at the other's cost shows as a split between the two workloads", true},
	{"serve-short", "ucq-serve, 2 connections; 256 distinct small inline queries against the 128-entry plan cache (~50% misses), so decode, parse, Prepare and naive fallback dominate", true},
	{"serve-mixed", "ucq-serve -data-dir; durable appends, a query after every version bump and a live subscriber, so WAL fsync, re-bind and delta evaluation are on the path", true},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloadDefs {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// runConfig is one run of one workload.
type runConfig struct {
	Workload  string
	Seed      int64
	Small     bool // smoke-test sizes; never set from the command line
	Windows   windows
	SetupReps int
}

// setupReps is how many times a run sets its engine up: set-up time is
// reported as the median, and only the last engine is measured.
const setupReps = 3

// setupAllowance is the part of a workload's wall-clock ceiling that does
// not scale with the windows: set-ups, probes, child start and stop.
const setupAllowance = 60 * time.Second

// engine is a set-up engine child, ready to be measured.
type engine interface {
	measure(windows) (*windowReport, error)
	stop()
}

// setup brings one engine child up: input generation, oracle evaluation,
// child start, dataset registration, warm-up ops.
func setup(ctx context.Context, rc runConfig) (engine, error) {
	def, ok := findWorkload(rc.Workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", rc.Workload)
	}
	if def.server {
		return setupServe(ctx, rc)
	}
	want, err := oracle(example2Query, libInputs(rc.Workload, rc.Seed, sizesFor(rc.Small), 1))
	if err != nil {
		return nil, err
	}
	return startRunner(runnerConfig{Workload: rc.Workload, Seed: rc.Seed, Small: rc.Small, Want: want})
}

// result is one workload's outcome.
type result struct {
	Workload string
	Seed     int64
	Windows  windows
	*windowReport
}

func (r *result) correct() bool {
	for _, t := range []*windowTotals{r.Untraced, r.Traced} {
		if t != nil && (t.Failed > 0 || t.Attempted == 0) {
			return false
		}
	}
	return len(r.Faults) == 0
}

// runWorkload sets the engine up setupReps times, measures the last one and
// stops it. A run that exceeds three times its windows plus setupAllowance
// is aborted with the workload's name instead of hanging.
func runWorkload(rc runConfig) (*result, error) {
	limit := 3*rc.Windows.total() + setupAllowance
	ceiling := time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "bench: workload %s exceeded its wall-clock ceiling of %v; aborting\n", rc.Workload, limit)
		runCleanups()
		os.Exit(3)
	})
	defer ceiling.Stop()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var setups []float64
	var eng engine
	for i := 0; i < rc.SetupReps; i++ {
		if eng != nil {
			eng.stop()
		}
		t0 := time.Now()
		var err error
		if eng, err = setup(ctx, rc); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", rc.Workload, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	rep, err := eng.measure(rc.Windows)
	eng.stop()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", rc.Workload, err)
	}
	rep.EndToEnd["setup_s"] = percentile(setups, 50)
	res := &result{Workload: rc.Workload, Seed: rc.Seed, Windows: rc.Windows, windowReport: rep}
	if rep.PerLayer != nil {
		if err := res.writeTrace(); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func (r *result) writeTrace() error {
	out, err := outDir()
	if err != nil {
		return err
	}
	return writeTrace(filepath.Join(out, "trace-"+r.Workload+".json"), traceFile{
		Workload: r.Workload, Seed: r.Seed,
		SelfNS: selfTimes(r.Spans), PerLayer: r.PerLayer, Spans: r.Spans,
	})
}

// print writes the result as a table of every metric with its unit.
func (r *result) print(w io.Writer) {
	def, _ := findWorkload(r.Workload)
	fmt.Fprintf(w, "\n== %s (seed %d)\n   %s\n", r.Workload, r.Seed, def.Why)
	row := func(d metricDef, vals metrics) {
		if v, ok := vals[d.Name]; ok {
			fmt.Fprintf(w, "  %-38s %14.4f %s\n", d.Name, v, d.Unit)
		} else {
			fmt.Fprintf(w, "  %-38s %14s %s\n", d.Name, "-", d.Unit)
		}
	}
	if t := r.Untraced; t != nil && r.Traced == nil {
		fmt.Fprintf(w, "end-to-end: %v window, tracing off, ops_attempted %d, ops_failed %d (medians over %v slices; p90 from %d samples)\n",
			r.Windows.Untraced, t.Attempted, t.Failed, sliceLen, t.Attempted-t.Failed)
		for _, d := range endToEndDefs {
			row(d, r.EndToEnd)
		}
	}
	if t := r.Traced; t != nil {
		fmt.Fprintf(w, "per-layer: %v traced window, ops_attempted %d, ops_failed %d, %d spans in bench/out/trace-%s.json (\"-\": not a layer of this workload)\n",
			r.Windows.Traced, t.Attempted, t.Failed, len(r.Spans), r.Workload)
		for _, d := range perLayerDefs {
			row(d, r.PerLayer)
		}
	}
	for _, f := range r.Faults {
		fmt.Fprintf(w, "  FAULT: %s\n", f)
	}
}

// contractLine is the last line of output of a single-workload run with
// -trace 0 or 1: the benchmark contract's result object.
func (r *result) contractLine(traced bool) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, vals, totals := endToEndDefs, r.EndToEnd, r.Untraced
	if traced {
		defs, vals, totals = perLayerDefs, r.PerLayer, r.Traced
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.correct(), Attempted: totals.Attempted, Failed: totals.Failed, Metrics: map[string]value{}}
	for _, d := range defs {
		out.Metrics[d.Name] = value{Value: vals[d.Name], Unit: d.Unit}
	}
	return json.Marshal(out)
}

// spread is how far a metric's repeated values lie apart, as a share of
// their median: the interquartile range (Python's statistics.quantiles
// with n=4, the exclusive method) from four values on, the full range
// below that.
func spread(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return 0
	}
	lo, hi := s[0], s[n-1]
	if n >= 4 {
		quartile := func(k int) float64 {
			pos := float64(k*(n+1))/4 - 1 // 0-based position among the sorted values
			i := min(max(int(pos), 0), n-2)
			return s[i] + (pos-float64(i))*(s[i+1]-s[i])
		}
		lo, hi = quartile(1), quartile(3)
	}
	return per(hi-lo, percentile(s, 50))
}

// printSpread reports, per workload and end-to-end metric, the spread over
// the repeated runs against the metric's bound, and whether all held.
func printSpread(w io.Writer, runs map[string][]*result) bool {
	held := true
	fmt.Fprintf(w, "\n== spread over repeated runs (interquartile range ÷ median from 4 runs, range ÷ median below)\n")
	for _, def := range workloadDefs {
		rs := runs[def.Name]
		if len(rs) < 2 {
			continue
		}
		fmt.Fprintf(w, "%s (%d runs)\n", def.Name, len(rs))
		for _, d := range endToEndDefs {
			vals := valuesOf(rs, func(r *result) float64 { return r.EndToEnd[d.Name] })
			sp := spread(vals)
			verdict := "ok"
			// setup_s is exempt, as it is for the driver: it is reported as
			// a median of few set-ups and only its drift between sets of
			// runs is bounded.
			if sp > d.Bound && d.Name != "setup_s" {
				verdict, held = "EXCEEDS BOUND", false
			}
			fmt.Fprintf(w, "  %-22s median %14.4f %-4s spread %6.2f%%  bound %5.1f%%  %s\n",
				d.Name, percentile(vals, 50), d.Unit, 100*sp, 100*d.Bound, verdict)
		}
	}
	return held
}

func main() {
	if encoded := os.Getenv(runnerEnv); encoded != "" {
		if err := runnerMain(encoded); err != nil {
			fmt.Fprintln(os.Stderr, "bench runner:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout))
}

func benchMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "run only this workload (default: all six)")
	seed := fs.Int64("seed", 1, "input seed; run i of -repeat uses seed+i")
	var seconds float64
	fs.Float64Var(&seconds, "seconds", 20, "length of the measured window in seconds")
	fs.Float64Var(&seconds, "window", 20, "alias of -seconds")
	traceSeconds := fs.Float64("trace-window", 6, "length of the traced window under -trace both")
	trace := fs.String("trace", "both", `"0": timed window only, end-to-end metrics; "1": traced window only, per-layer metrics; "both": timed then traced`)
	repeat := fs.Int("repeat", 1, "run the selection this many times and report every end-to-end metric's spread against its bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	dur := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	// A traced run spends the first third of its time untraced, as the
	// reference for the tracing overhead.
	timed := windows{Untraced: dur(seconds)}
	traced := windows{Untraced: dur(seconds / 3), Traced: dur(seconds * 2 / 3)}
	var plan []windows
	switch *trace {
	case "0":
		plan = []windows{timed}
	case "1":
		plan = []windows{traced}
	case "both":
		// Two engine children per workload, so the probes of the traced
		// run never count towards the timed run's CPU or peak RSS.
		plan = []windows{timed, {Untraced: dur(*traceSeconds / 2), Traced: dur(*traceSeconds)}}
	default:
		fmt.Fprintf(os.Stderr, "bench: -trace must be 0, 1 or both, got %q\n", *trace)
		return 2
	}
	selected := workloadDefs
	if *workload != "" {
		def, ok := findWorkload(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
			return 2
		}
		selected = []workloadDef{def}
	}

	// Children and temporary directories go away on every exit path.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigs
		runCleanups()
		os.Exit(130)
	}()
	defer func() {
		if p := recover(); p != nil {
			runCleanups()
			panic(p)
		}
	}()
	defer runCleanups()

	runs := map[string][]*result{}
	allCorrect := true
	var last *result
	for i := 0; i < *repeat; i++ {
		for _, def := range selected {
			for _, w := range plan {
				rc := runConfig{Workload: def.Name, Seed: *seed + int64(i), Windows: w, SetupReps: setupReps}
				if w.Traced > 0 {
					rc.SetupReps = 1 // set-up time is only reported by timed runs
				}
				res, err := runWorkload(rc)
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					return 1
				}
				res.print(stdout)
				if w.Traced == 0 {
					runs[def.Name] = append(runs[def.Name], res)
				}
				allCorrect = allCorrect && res.correct()
				last = res
			}
		}
	}
	held := *repeat < 2 || printSpread(stdout, runs)
	if len(selected) == 1 && *repeat == 1 && *trace != "both" {
		line, err := last.contractLine(last.Traced != nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	if !allCorrect {
		fmt.Fprintln(os.Stderr, "bench: some ops failed or disagreed with the oracle")
		return 1
	}
	if !held {
		fmt.Fprintln(os.Stderr, "bench: a spread exceeds its bound")
		return 1
	}
	return 0
}
