package main

// Metric definitions and the arithmetic shared by every workload: the
// closed-loop window, percentiles and the end-to-end figures.

import (
	"math"
	"sort"
	"sync"
	"time"
)

// metricDef names one reported number. BENCHMARK.json repeats this list
// (bench_test.go keeps the two in step); bound only applies to end-to-end
// metrics.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEndDefs are what a user of the system sees. Every workload reports
// all of them from a window with tracing off. Every bound is the contract's
// maximum: the reference box's own speed drifts by 10–25% between sets of
// runs minutes apart (README.md, "Steadiness"), so a tighter bound would
// reject changes for what the host did.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"answers_per_s", "1/s", "higher", 0.25},
	{"op_ms_p50", "ms", "lower", 0.25},
	{"op_ms_p90", "ms", "lower", 0.25},
	{"first_answer_ms_p50", "ms", "lower", 0.25},
	{"cpu_us_per_answer", "us", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayerDefs are the numbers of single layers, from a traced window,
// /stats deltas, the child's CPU clock and in-process probes. A workload
// reports 0 for a layer it does not exercise; README.md says which
// workload measures which.
var perLayerDefs = []metricDef{
	// Planning: parse and Prepare, the server's plan cache.
	{"cq.parse_us_p50", "us", "lower", 0},
	{"core.prepare_us_p50", "us", "lower", 0},
	{"server.plan_cache_hit_ratio", "ratio", "higher", 0},
	{"server.plans_prepared_per_op", "1/op", "lower", 0},
	// Theorem 12 preprocessing.
	{"core.bind_ms_p50", "ms", "lower", 0},
	{"core.bind_ns_per_tuple", "ns", "lower", 0},
	{"core.bind_alloc_bytes_per_tuple", "B", "lower", 0},
	{"core.bind_growth_4x", "ratio", "lower", 0},
	// Enumeration.
	{"enumeration.first_us_p50", "us", "lower", 0},
	{"enumeration.drain_ns_per_answer", "ns", "lower", 0},
	{"enumeration.alloc_bytes_per_answer", "B", "lower", 0},
	{"enumeration.allocs_per_answer", "count", "lower", 0},
	{"enumeration.delay_growth_8x", "ratio", "lower", 0},
	{"runtime.gc_cpu_share", "ratio", "lower", 0},
	// Reference evaluator.
	{"baseline.naive_ms_p50", "ms", "lower", 0},
	{"enumeration.vs_naive_ratio", "ratio", "lower", 0},
	// Catalog bind cache.
	{"catalog.bind_cached_us_p50", "us", "lower", 0},
	{"server.bind_cache_hit_ratio", "ratio", "higher", 0},
	// Wire and socket.
	{"wire.bytes_per_answer", "B", "lower", 0},
	{"stream.decode_ns_per_answer", "ns", "lower", 0},
	{"stream.first_to_last_ns_per_answer", "ns", "lower", 0},
	{"server.cpu_user_us_per_answer", "us", "lower", 0},
	{"server.cpu_sys_us_per_answer", "us", "lower", 0},
	{"server.encode_socket_us_per_answer", "us", "lower", 0},
	// Where a request's time to first answer goes.
	{"server.ttfb_ms_p50", "ms", "lower", 0},
	{"server.headers_to_first_ms_p50", "ms", "lower", 0},
	{"server.first_answer_ms_p50_internal", "ms", "lower", 0},
	// The cost model's choices.
	{"cost.decision_sequential_share", "ratio", "higher", 0},
	{"cost.decision_parallel_share", "ratio", "higher", 0},
	{"cost.decision_sharded_share", "ratio", "higher", 0},
	// Write path and incremental maintenance.
	{"catalog.append_ack_ms_p50", "ms", "lower", 0},
	{"catalog.append_ack_ms_p90", "ms", "lower", 0},
	{"storage.wal_bytes_per_append", "B", "lower", 0},
	{"storage.wal_records_per_append", "count", "lower", 0},
	{"delta.push_ms_p50", "ms", "lower", 0},
	{"delta.push_ms_p90", "ms", "lower", 0},
	{"delta.answers_pushed_per_append", "count", "higher", 0},
	{"delta.resyncs", "count", "lower", 0},
	{"catalog.append_us_p50", "us", "lower", 0},
	{"delta.answers_us_p50", "us", "lower", 0},
	// Share of the traced ops' wall time spent in each step (self time).
	{"trace.parse_self_share", "ratio", "lower", 0},
	{"trace.prepare_self_share", "ratio", "lower", 0},
	{"trace.bind_self_share", "ratio", "lower", 0},
	{"trace.drain_self_share", "ratio", "lower", 0},
	// The harness itself.
	{"client.ops_per_s", "1/s", "higher", 0},
	{"client.op_ms_p99", "ms", "lower", 0},
	{"client.first_answer_ms_p90", "ms", "lower", 0},
	{"client.cpu_us_per_answer", "us", "lower", 0},
	{"server.streams_shed", "count", "lower", 0},
	{"server.errors", "count", "lower", 0},
	{"server.requests_cancelled", "count", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
}

// metrics maps metric names to measured values.
type metrics map[string]float64

// opSample is what a window keeps of one op. Cycle is filled in by
// runWindow; the last three fields are filled in traced windows only.
type opSample struct {
	Start, First, End time.Duration // since the window opened
	Answers           int
	OK                bool
	// Engine is the engine child's CPU clock and resident set, read when
	// the op ended.
	Engine procStat
	// Cycle is the time since the same client's previous op ended (or the
	// window opened): the op plus whatever the client did before it. The
	// cycles of one client tile its time in the window.
	Cycle          time.Duration
	TTFB           time.Duration // request written → response headers
	HeadersToFirst time.Duration // headers → first answer decoded
	Bytes          int64         // response body bytes
}

// opFunc performs one op. seq numbers the op within its client; open is the
// window's opening time; rec is nil in untraced windows.
type opFunc func(seq int, open time.Time, rec *recorder) opSample

// runWindow drives one closed loop per client for d: each client starts its
// next op only when the previous one returned. Ops still in flight when the
// window closes are finished but dropped.
func runWindow(d time.Duration, clients []opFunc, rec *recorder) []opSample {
	open := time.Now()
	var (
		mu  sync.Mutex
		all []opSample
		wg  sync.WaitGroup
	)
	for _, op := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []opSample
			var prevEnd time.Duration
			for seq := 0; time.Since(open) < d; seq++ {
				s := op(seq, open, rec)
				s.Cycle, prevEnd = s.End-prevEnd, s.End
				if s.End <= d {
					mine = append(mine, s)
				}
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	sort.Slice(all, func(i, j int) bool { return all[i].End < all[j].End })
	return all
}

// percentile reads the p-th percentile (0 < p < 100) of vals by the
// nearest-rank rule; 0 for an empty sample.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// valuesOf extracts one figure per sample.
func valuesOf[T any](xs []T, f func(T) float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

// ratio is a/(a+b), 0 when both are 0.
func ratio(a, b int64) float64 {
	if a+b == 0 {
		return 0
	}
	return float64(a) / float64(a+b)
}

// per is a/b, 0 when b is 0.
func per(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// windowTotals counts a window's ops.
type windowTotals struct {
	Attempted int
	Failed    int
	Answers   int64 // of verified ops only
}

func totalsOf(samples []opSample) windowTotals {
	var t windowTotals
	for _, s := range samples {
		t.Attempted++
		if s.OK {
			t.Answers += int64(s.Answers)
		} else {
			t.Failed++
		}
	}
	return t
}

// verified keeps the ops whose answers matched the oracle; only those are
// measured.
func verified(samples []opSample) []opSample {
	ok := make([]opSample, 0, len(samples))
	for _, s := range samples {
		if s.OK {
			ok = append(ok, s)
		}
	}
	return ok
}

// sliceLen is the length of the slices a window is cut into. The reference
// box is a shared VM whose speed shifts by tens of percent for seconds at a
// time; a slow spell of the host only ever makes the system look worse. So
// every end-to-end figure is computed per slice and the median over the
// slices is reported: a spell shorter than half the window moves no
// figure, where it would drag a whole-window mean or p90 with it.
const sliceLen = time.Second

// endToEnd computes the end-to-end metrics of a window; setup_s is measured
// around the child and added by the caller. samples are ordered by End;
// cpuAtOpen is the engine child's CPU clock when the window opened.
func endToEnd(samples []opSample, window time.Duration, clients int, cpuAtOpen time.Duration) metrics {
	var rate, p50, p90, first, cpu, rss []float64
	prevCPU := cpuAtOpen
	forEachSlice(verified(samples), window, func(ops []opSample) {
		var answers float64
		var cycles time.Duration
		for _, s := range ops {
			answers += float64(s.Answers)
			cycles += s.Cycle
		}
		lat := valuesOf(ops, func(s opSample) float64 { return ms(s.End - s.Start) })
		// The clients' cycles tile the slice once each, so their sum over
		// the client count is the time these ops took, free of the
		// rounding that counting ops per fixed interval would add.
		rate = append(rate, per(answers*float64(clients), cycles.Seconds()))
		p50 = append(p50, percentile(lat, 50))
		p90 = append(p90, percentile(lat, 90))
		first = append(first, percentile(valuesOf(ops, func(s opSample) float64 { return ms(s.First - s.Start) }), 50))
		lastCPU := ops[len(ops)-1].Engine.cpu()
		cpu = append(cpu, per(us(lastCPU-prevCPU), answers))
		prevCPU = lastCPU
		// The slice's peak: a whole-life maximum such as ru_maxrss hangs on
		// where one collection cycle happened to fall (cold-bind: 40 to
		// 57 MB over ten runs), the typical slice's highest reading does not.
		var peak int64
		for _, s := range ops {
			peak = max(peak, s.Engine.RSS)
		}
		rss = append(rss, float64(peak)/(1<<20))
	})
	return metrics{
		"answers_per_s":       percentile(rate, 50),
		"op_ms_p50":           percentile(p50, 50),
		"op_ms_p90":           percentile(p90, 50),
		"first_answer_ms_p50": percentile(first, 50),
		"cpu_us_per_answer":   percentile(cpu, 50),
		"peak_rss_mb":         percentile(rss, 50),
	}
}

// forEachSlice calls f with the ops that ended in each slice of the window,
// in time order, skipping slices in which none did.
func forEachSlice(samples []opSample, window time.Duration, f func([]opSample)) {
	n := max(1, int(window/sliceLen))
	each := window / time.Duration(n)
	for k, i := 0, 0; k < n; k++ {
		j := i
		for j < len(samples) && (k == n-1 || samples[j].End < time.Duration(k+1)*each) {
			j++
		}
		if j > i {
			f(samples[i:j])
		}
		i = j
	}
}

// harnessMetrics are the per-layer figures every traced window reports
// about the load generator itself. But for the tracing overhead they are
// whole-window figures, not slice medians: they describe this run, host
// spells included.
func harnessMetrics(samples []opSample, window time.Duration, clients int, untracedRate float64) metrics {
	ok := verified(samples)
	lat := valuesOf(ok, func(s opSample) float64 { return ms(s.End - s.Start) })
	first := valuesOf(ok, func(s opSample) float64 { return ms(s.First - s.Start) })
	m := metrics{
		"client.ops_per_s":           per(float64(len(ok)), window.Seconds()),
		"client.first_answer_ms_p90": percentile(first, 90),
	}
	// A p99 needs ten samples beyond it.
	if len(lat) >= 1000 {
		m["client.op_ms_p99"] = percentile(lat, 99)
	}
	if untracedRate > 0 {
		// Like against like: the traced rate is a slice median too.
		traced := endToEnd(samples, window, clients, 0)["answers_per_s"]
		m["trace.overhead_pct"] = 100 * (1 - traced/untracedRate)
	}
	return m
}
