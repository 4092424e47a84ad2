package main

// The library workloads, cold-bind and enum-union. Their engine is the
// public repro package, called from a fresh child process (this binary
// re-executed with runnerEnv set) so the engine's CPU and resident set are
// the child's own and no workload inherits another's heap.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	runtimemetrics "runtime/metrics"
	"syscall"
	"time"

	ucq "repro"
)

// runnerEnv carries a runnerConfig to the child. Set, it turns the process
// into a library-workload runner.
const runnerEnv = "UCQ_BENCH_RUNNER"

// runnerConfig is everything the runner child needs: it regenerates the
// inputs from the seed itself and only receives the oracle's verdict.
type runnerConfig struct {
	Workload string
	Seed     int64
	Small    bool
	Want     expect
}

// windows are the measuring phases of one engine child, in the order they
// run. The untraced window yields the end-to-end metrics; a traced window
// yields the per-layer metrics, with the untraced one before it as the
// reference for the tracing overhead.
type windows struct {
	Untraced, Traced time.Duration
}

func (w windows) total() time.Duration { return w.Untraced + w.Traced }

// windowReport is what an engine hands back for its windows.
type windowReport struct {
	Untraced *windowTotals
	Traced   *windowTotals
	EndToEnd metrics
	PerLayer metrics
	Spans    []span
	// Faults are failures that belong to no single op (a subscriber
	// resync, a push that disagrees with the oracle); any makes the run
	// incorrect.
	Faults []string
}

// libInputs generates a library workload's instance.
func libInputs(workload string, seed int64, sz sizes, scale int) rows {
	purpose := int64(purposeInstance)
	if scale > 1 {
		purpose = purposeGrowth
	}
	rng := subRand(seed, purpose)
	if workload == "cold-bind" {
		return example2Graphs(rng, scale*sz.coldN, sz.coldDegree, sz.coldDangling)
	}
	return example2Graphs(rng, scale*sz.enumN, sz.enumDegree, 0)
}

// runnerMain is the child's main: set up, report ready, wait for the
// windows on stdin, measure, print the report. Closing stdin instead ends
// the child after set-up, which is how set-up is timed repeatedly.
func runnerMain(encoded string) error {
	var cfg runnerConfig
	if err := json.Unmarshal([]byte(encoded), &cfg); err != nil {
		return fmt.Errorf("decoding %s: %w", runnerEnv, err)
	}
	eng, err := newLibEngine(cfg)
	if err != nil {
		return err
	}
	for i := 0; i < 3; i++ {
		if s := eng.op(i, time.Now(), nil); !s.OK {
			return fmt.Errorf("%s: warm-up op disagrees with the oracle (%d answers, want %d)", cfg.Workload, s.Answers, cfg.Want.Count)
		}
	}
	fmt.Println("ready")
	line, err := bufio.NewReader(os.Stdin).ReadBytes('\n')
	if err != nil {
		return nil // stdin closed: this set-up was only being timed
	}
	var w windows
	if err := json.Unmarshal(line, &w); err != nil {
		return fmt.Errorf("decoding windows: %w", err)
	}
	rep, err := eng.measure(w)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// libEngine holds one library workload's prepared state and the per-op
// measurements of its traced window.
type libEngine struct {
	cfg    runnerConfig
	sz     sizes
	tuples int
	inst   *ucq.Instance      // cold-bind: bound afresh by every op
	pq     *ucq.PreparedQuery // enum-union: prepared once
	ds     *ucq.Dataset       // enum-union: registered and bound once

	// Traced-window accumulators (one client, so no locking).
	bindAlloc, drainAlloc, drainMallocs, drainAnswers uint64
	binds                                             int
}

func newLibEngine(cfg runnerConfig) (*libEngine, error) {
	e := &libEngine{cfg: cfg, sz: sizesFor(cfg.Small)}
	rels := libInputs(cfg.Workload, cfg.Seed, e.sz, 1)
	e.tuples = rels.tupleCount()
	inst, err := ucq.InstanceFromRows(rels)
	if err != nil {
		return nil, fmt.Errorf("building instance: %w", err)
	}
	switch cfg.Workload {
	case "cold-bind":
		e.inst = inst
	case "enum-union":
		if e.pq, err = prepareExample2(); err != nil {
			return nil, err
		}
		if e.ds, err = ucq.NewCatalog().Register("example2", inst); err != nil {
			return nil, fmt.Errorf("registering dataset: %w", err)
		}
		// The one Theorem 12 preprocessing run; every op's BindDataset hits.
		if _, err := e.pq.BindDataset(e.ds); err != nil {
			return nil, fmt.Errorf("binding dataset: %w", err)
		}
	default:
		return nil, fmt.Errorf("%q is not a library workload", cfg.Workload)
	}
	return e, nil
}

func prepareExample2() (*ucq.PreparedQuery, error) {
	u, err := ucq.Parse(example2Query)
	if err != nil {
		return nil, fmt.Errorf("parsing Example 2: %w", err)
	}
	pq, err := ucq.Prepare(u, nil)
	if err != nil {
		return nil, fmt.Errorf("preparing Example 2: %w", err)
	}
	return pq, nil
}

// op is one query evaluation. With a recorder it also wraps each layer
// call in a span and reads the allocator's counters around bind and drain.
func (e *libEngine) op(seq int, open time.Time, rec *recorder) opSample {
	traced := rec != nil
	start := time.Now()
	root := rec.beginAt("op", -1, seq, start)
	defer rec.end(root)
	fail := func() opSample {
		now := time.Since(open)
		return opSample{Start: start.Sub(open), First: now, End: now}
	}

	var plan *ucq.Plan
	var before, after runtime.MemStats
	if e.cfg.Workload == "cold-bind" {
		id := rec.begin("cq.parse", root, seq)
		u, err := ucq.Parse(example2Query)
		rec.end(id)
		if err != nil {
			return fail()
		}
		id = rec.begin("core.prepare", root, seq)
		pq, err := ucq.Prepare(u, nil)
		rec.end(id)
		if err != nil {
			return fail()
		}
		if traced {
			runtime.ReadMemStats(&before)
		}
		id = rec.begin("core.bind", root, seq)
		plan, err = pq.Bind(e.inst)
		rec.end(id)
		if err != nil {
			return fail()
		}
		if traced {
			runtime.ReadMemStats(&after)
			e.bindAlloc += after.TotalAlloc - before.TotalAlloc
			e.binds++
		}
	} else {
		id := rec.begin("catalog.bind_cached", root, seq)
		cached, err := e.pq.BindDataset(e.ds)
		rec.end(id)
		if err != nil || !cached.BindCacheHit() {
			return fail()
		}
		plan = cached
	}

	if traced {
		runtime.ReadMemStats(&before)
	}
	var got expect
	drain := rec.begin("enumeration.drain", root, seq)
	it := plan.Iterator()
	defer ucq.CloseAnswers(it)
	firstID := rec.begin("enumeration.first", drain, seq)
	t, ok := it.Next()
	rec.end(firstID)
	first := time.Since(open)
	for ; ok; t, ok = it.Next() {
		got.add(t)
	}
	rec.end(drain)
	end := time.Since(open)
	if traced {
		runtime.ReadMemStats(&after)
		e.drainAlloc += after.TotalAlloc - before.TotalAlloc
		e.drainMallocs += after.Mallocs - before.Mallocs
		e.drainAnswers += uint64(got.Count)
	}
	return opSample{
		Start: start.Sub(open), First: first, End: end,
		Answers: got.Count,
		OK:      ucq.AnswersErr(it) == nil && got == e.cfg.Want,
		Engine:  readProcStat(os.Getpid()),
	}
}

// selfCPU is this process's user+sys CPU time so far, from getrusage: finer
// than the 10 ms ticks of /proc/<pid>/stat, which matters to the probes
// that time a single drain.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// gcCPU reads the Go runtime's estimate of CPU seconds spent in the
// garbage collector and in total (idle time excluded).
func gcCPU() (gc, busy float64) {
	s := []runtimemetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	runtimemetrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64() - s[2].Value.Float64()
}

// measure runs the windows and, after a traced one, the probes.
func (e *libEngine) measure(w windows) (*windowReport, error) {
	rep := &windowReport{}
	clients := []opFunc{e.op}

	if w.Untraced > 0 {
		cpu0 := readProcStat(os.Getpid()).cpu()
		samples := runWindow(w.Untraced, clients, nil)
		t := totalsOf(samples)
		rep.Untraced = &t
		rep.EndToEnd = endToEnd(samples, w.Untraced, len(clients), cpu0)
	}
	if w.Traced > 0 {
		rec := newRecorder()
		gc0, busy0 := gcCPU()
		samples := runWindow(w.Traced, clients, rec)
		gc1, busy1 := gcCPU()
		t := totalsOf(samples)
		rep.Traced = &t
		rep.Spans = rec.finished()
		rep.PerLayer = harnessMetrics(samples, w.Traced, len(clients), rep.EndToEnd["answers_per_s"])
		rep.PerLayer["runtime.gc_cpu_share"] = per(gc1-gc0, busy1-busy0)
		e.layerMetrics(rep)
		if err := e.probes(rep.PerLayer); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// spanP50 is the median duration of the spans called name.
func spanP50(spans []span, name string) time.Duration {
	var named []span
	for _, s := range spans {
		if s.Name == name {
			named = append(named, s)
		}
	}
	return time.Duration(percentile(valuesOf(named, func(s span) float64 { return float64(s.End - s.Start) }), 50))
}

// layerMetrics turns the traced window's spans and allocator deltas into
// per-layer figures.
func (e *libEngine) layerMetrics(rep *windowReport) {
	m, spans := rep.PerLayer, rep.Spans
	self := selfTimes(spans)
	m["trace.parse_self_share"] = selfShare(self, "cq.parse")
	m["trace.prepare_self_share"] = selfShare(self, "core.prepare")
	m["trace.bind_self_share"] = selfShare(self, "core.bind")
	m["trace.drain_self_share"] = selfShare(self, "enumeration.drain") + selfShare(self, "enumeration.first")

	m["enumeration.first_us_p50"] = us(spanP50(spans, "enumeration.first"))
	drain := spanP50(spans, "enumeration.drain")
	m["enumeration.drain_ns_per_answer"] = per(float64(drain), float64(e.cfg.Want.Count))
	m["enumeration.alloc_bytes_per_answer"] = per(float64(e.drainAlloc), float64(e.drainAnswers))
	m["enumeration.allocs_per_answer"] = per(float64(e.drainMallocs), float64(e.drainAnswers))

	if e.cfg.Workload == "cold-bind" {
		bind := spanP50(spans, "core.bind")
		m["cq.parse_us_p50"] = us(spanP50(spans, "cq.parse"))
		m["core.prepare_us_p50"] = us(spanP50(spans, "core.prepare"))
		m["core.bind_ms_p50"] = ms(bind)
		m["core.bind_ns_per_tuple"] = per(float64(bind), float64(e.tuples))
		m["core.bind_alloc_bytes_per_tuple"] = per(float64(e.bindAlloc), float64(e.binds*e.tuples))
	} else {
		m["catalog.bind_cached_us_p50"] = us(spanP50(spans, "catalog.bind_cached"))
	}
}

// probeReps is how often a probe repeats its measurement; it reports the
// median.
const probeReps = 3

// medianOf runs f reps times and returns the median of what it returns.
func medianOf(reps int, f func() (float64, error)) (float64, error) {
	vals := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		v, err := f()
		if err != nil {
			return 0, err
		}
		vals = append(vals, v)
	}
	return percentile(vals, 50), nil
}

// drainCount enumerates the whole plan and returns the number of answers.
func drainCount(plan *ucq.Plan) (int, error) {
	it := plan.Iterator()
	defer ucq.CloseAnswers(it)
	n := 0
	for _, ok := it.Next(); ok; _, ok = it.Next() {
		n++
	}
	return n, ucq.AnswersErr(it)
}

// probes measures what no window shows: how preprocessing and delay scale
// with the instance (the paper's two promises, as ratios that should stay
// near 1), and the naive evaluator on the same instance.
func (e *libEngine) probes(m metrics) error {
	pq, err := prepareExample2()
	if err != nil {
		return err
	}
	if e.cfg.Workload == "cold-bind" {
		const scale = 4
		big := libInputs(e.cfg.Workload, e.cfg.Seed, e.sz, scale)
		inst, err := ucq.InstanceFromRows(big)
		if err != nil {
			return fmt.Errorf("building %d× instance: %w", scale, err)
		}
		nsPerTuple, err := medianOf(probeReps, func() (float64, error) {
			t0 := time.Now()
			_, err := pq.Bind(inst)
			return per(float64(time.Since(t0)), float64(big.tupleCount())), err
		})
		if err != nil {
			return fmt.Errorf("binding %d× instance: %w", scale, err)
		}
		m["core.bind_growth_4x"] = per(nsPerTuple, m["core.bind_ns_per_tuple"])
		return nil
	}

	const scale = 8
	big, err := ucq.InstanceFromRows(libInputs(e.cfg.Workload, e.cfg.Seed, e.sz, scale))
	if err != nil {
		return fmt.Errorf("building %d× instance: %w", scale, err)
	}
	plan, err := pq.Bind(big)
	if err != nil {
		return fmt.Errorf("binding %d× instance: %w", scale, err)
	}
	nsPerAnswer, err := medianOf(probeReps, func() (float64, error) {
		t0 := time.Now()
		n, err := drainCount(plan)
		return per(float64(time.Since(t0)), float64(n)), err
	})
	if err != nil {
		return fmt.Errorf("draining %d× instance: %w", scale, err)
	}
	m["enumeration.delay_growth_8x"] = per(nsPerAnswer, m["enumeration.drain_ns_per_answer"])

	// Certified against naive, both from a cold bind on the 1× instance.
	inst := e.ds.Instance()
	naive, err := ucq.Prepare(pq.Query, &ucq.PlanOptions{ForceNaive: true})
	if err != nil {
		return fmt.Errorf("preparing naive plan: %w", err)
	}
	evalMS := func(pq *ucq.PreparedQuery) (float64, error) {
		return medianOf(probeReps+2, func() (float64, error) {
			t0 := time.Now()
			plan, err := pq.Bind(inst)
			if err != nil {
				return 0, err
			}
			_, err = drainCount(plan)
			return ms(time.Since(t0)), err
		})
	}
	naiveMS, err := evalMS(naive)
	if err != nil {
		return fmt.Errorf("naive evaluation: %w", err)
	}
	certifiedMS, err := evalMS(pq)
	if err != nil {
		return fmt.Errorf("certified evaluation: %w", err)
	}
	m["baseline.naive_ms_p50"] = naiveMS
	m["enumeration.vs_naive_ratio"] = per(certifiedMS, naiveMS)
	return nil
}
