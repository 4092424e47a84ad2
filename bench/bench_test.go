package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	ucq "repro"
)

// TestMain lets the test binary stand in for the bench binary when a
// library workload re-executes it as its runner child.
func TestMain(m *testing.M) {
	if encoded := os.Getenv(runnerEnv); encoded != "" {
		if err := runnerMain(encoded); err != nil {
			fmt.Fprintln(os.Stderr, "bench runner:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(m.Run())
}

// allInputs renders everything the generators hand to the engine for one
// seed.
func allInputs(t *testing.T, seed int64) []byte {
	t.Helper()
	sz := smokeSizes
	live := newLiveDataset(subRand(seed, purposeInstance), sz)
	batch, added := live.nextAppend()
	data, err := json.Marshal(map[string]any{
		"cold":   libInputs("cold-bind", seed, sz, 1),
		"enum":   libInputs("enum-union", seed, sz, 1),
		"cold4x": libInputs("cold-bind", seed, sz, 4),
		"join":   keyedJoin(subRand(seed, purposeInstance), sz.joinKeys, sz.joinLeft, sz.joinRight),
		"pool":   queryPool(subRand(seed, purposePool), sz.poolRenames, sz.poolRows),
		"live":   live.base,
		"append": []any{batch, added},
	})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestGeneratorsAreSeeded(t *testing.T) {
	a, b, c := allInputs(t, 7), allInputs(t, 7), allInputs(t, 8)
	if !bytes.Equal(a, b) {
		t.Error("the same seed gave different inputs")
	}
	if bytes.Equal(a, c) {
		t.Error("different seeds gave identical inputs")
	}
}

func TestQueryPoolIsDistinctAndTyped(t *testing.T) {
	pool := queryPool(subRand(1, purposePool), benchSizes.poolRenames, 20)
	if len(pool) != 256 {
		t.Fatalf("pool has %d queries, want 256", len(pool))
	}
	seen := map[string]bool{}
	modes := map[string]ucq.Mode{}
	for _, q := range pool {
		if seen[q.Query] {
			t.Fatalf("duplicate query %q", q.Query)
		}
		seen[q.Query] = true
		u, err := ucq.Parse(q.Query)
		if err != nil {
			t.Fatalf("%s: %v", q.Shape, err)
		}
		pq, err := ucq.Prepare(u, nil)
		if err != nil {
			t.Fatalf("%s: %v", q.Shape, err)
		}
		modes[q.Shape] = pq.Mode
	}
	want := map[string]ucq.Mode{
		"example2": ucq.ConstantDelay, "free-connex": ucq.ConstantDelay,
		"matmul": ucq.Naive, "fc-union": ucq.ConstantDelay,
	}
	if !reflect.DeepEqual(modes, want) {
		t.Errorf("shape modes = %v, want %v", modes, want)
	}
}

// TestLiveDatasetClosedForm checks the serve-mixed oracle: the closed form
// per version equals a naive evaluation of the grown instance.
func TestLiveDatasetClosedForm(t *testing.T) {
	d := newLiveDataset(subRand(3, purposeInstance), smokeSizes)
	all := rows{"R": append([][]int64(nil), d.base["R"]...), "S": d.base["S"]}
	want, err := oracle(joinQuery, all)
	if err != nil {
		t.Fatal(err)
	}
	for v := 2; v <= 5; v++ {
		batch, added := d.nextAppend()
		if len(added) != smokeSizes.appendRows {
			t.Fatalf("append adds %d answers, want %d", len(added), smokeSizes.appendRows)
		}
		all["R"] = append(all["R"], batch["R"]...)
		want = want.plus(expectRows(added))
		got, err := oracle(joinQuery, all)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("version %d: naive %+v, closed form %+v", v, got, want)
		}
	}
}

// ndjsonStream renders answers as the server's NDJSON response body.
func ndjsonStream(answers [][]int64) []byte {
	var buf []byte
	for _, a := range answers {
		t := make(ucq.Tuple, len(a))
		for i, v := range a {
			t[i] = ucq.V(v)
		}
		buf = append(ucq.AppendTupleJSON(buf, t), '\n')
	}
	trailer, _ := json.Marshal(ucq.StreamTrailer{Done: true, Count: len(answers), Mode: "constant-delay", Cache: "hit"})
	return append(append(buf, trailer...), '\n')
}

func TestOracleCatchesDroppedAndDuplicatedTuples(t *testing.T) {
	answers := [][]int64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}, {3, 2, 1}}
	want := expectRows(answers)
	check := func(stream [][]int64) bool {
		_, _, ok := decodeAndCheck(bytes.NewReader(ndjsonStream(stream)), ucq.MediaTypeNDJSON, func(*ucq.StreamTrailer) expect { return want })
		return ok
	}
	if !check(answers) {
		t.Fatal("the intact stream was rejected")
	}
	if !check([][]int64{answers[2], answers[0], answers[3], answers[1]}) {
		t.Error("a reordered stream was rejected; the checksum must not depend on order")
	}
	if check(answers[1:]) {
		t.Error("a dropped tuple went unnoticed")
	}
	if check(append([][]int64{answers[0]}, answers...)) {
		t.Error("a duplicated tuple went unnoticed")
	}
	// One dropped and one duplicated: the count is right, the sum is not.
	if check([][]int64{answers[0], answers[0], answers[2], answers[3]}) {
		t.Error("a dropped tuple masked by a duplicated one went unnoticed")
	}
	if check([][]int64{{2, 1, 3}, answers[1], answers[2], answers[3]}) {
		t.Error("swapped columns went unnoticed")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "bind", Start: 10, End: 60, Parent: 0},
		{Name: "index", Start: 20, End: 30, Parent: 1},
		{Name: "index", Start: 25, End: 45, Parent: 1}, // overlaps its sibling
		{Name: "drain", Start: 60, End: 95, Parent: 0},
		{Name: "drain", Start: 90, End: 120, Parent: 0}, // runs past its parent
	}
	got := selfTimes(spans)
	want := map[string]int64{
		"op":    100 - (50 + 40), // children cover [10,60) and [60,100)
		"bind":  50 - 25,         // children cover [20,45)
		"index": 10 + 20,
		"drain": 35 + 30,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	if s := selfShare(got, "bind"); math.Abs(s-25.0/130) > 1e-12 {
		t.Errorf("selfShare(bind) = %v", s)
	}
}

func TestRecorderDropsUnfinishedOps(t *testing.T) {
	r := newRecorder()
	a := r.begin("op", -1, 1)
	r.end(r.begin("bind", a, 1))
	r.end(a)
	b := r.begin("op", -1, 2)
	r.end(r.begin("bind", b, 2)) // op 2's root never closes
	got := r.finished()
	if len(got) != 2 || got[0].Name != "op" || got[1].Parent != 0 {
		t.Errorf("finished = %+v", got)
	}
	var none *recorder
	none.end(none.begin("op", -1, 0)) // a nil recorder records nothing
}

func TestParseProcStat(t *testing.T) {
	line := "4242 (ucq serve) x) S 1 4242 4242 0 -1 4194560 1500 0 0 0 731 269 0 0 20 0 9 0 100 1 2 3"
	st, err := parseProcStat(line)
	want := procStat{User: 7310 * time.Millisecond, Sys: 2690 * time.Millisecond, RSS: 2 * int64(os.Getpagesize())}
	if err != nil || st != want {
		t.Errorf("parseProcStat = %+v, %v, want %+v", st, err, want)
	}
	if _, err := parseProcStat("1 (x) S 1 2"); err == nil {
		t.Error("a short line parsed")
	}
	if st := readProcStat(os.Getpid()); st.RSS <= 0 {
		t.Errorf("readProcStat(self) = %+v", st)
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]; the
	// nearest-rank median of 1..10 is 5.
	if got, want := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}), 5.5/5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := spread([]float64{100, 104}); math.Abs(got-0.04) > 1e-12 {
		t.Errorf("two-run spread = %v, want the range over the median", got)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the definitions the
// benchmark prints from.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []jsonMetric `json:"end_to_end"`
		PerLayer []jsonMetric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.Paths, []string{"bench"}) || !reflect.DeepEqual(spec.Command, []string{"bash", "bench/run.sh"}) {
		t.Errorf("command %v, paths %v", spec.Command, spec.Paths)
	}
	// 4 + 22 runs per workload, each with its set-ups, must fit the
	// driver's 3420 s; 8 s per run covers set-ups, probes and child stops.
	if runs := 4 + 22*len(spec.Workloads); float64(runs)*(float64(spec.RunSeconds)+8) > 3300 {
		t.Errorf("run_seconds %d does not fit %d runs into the time cap", spec.RunSeconds, runs)
	}
	if len(spec.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads, want %d", len(spec.Workloads), len(workloadDefs))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadDefs[i].Name || w.Why != workloadDefs[i].Why {
			t.Errorf("workload %d is %q, want %q with the same why", i, w.Name, workloadDefs[i].Name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	compare := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, want %d", kind, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s[%d] = %+v, want %+v", kind, i, g, w)
			}
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound != w.Bound || w.Bound > 0.25)) {
				t.Errorf("%s[%d] %s: bound %v, want %v", kind, i, g.Name, g.Bound, w.Bound)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEndDefs, true)
	compare("per_layer", spec.PerLayer, perLayerDefs, false)
}

// TestSmoke runs all six workloads end to end at reduced sizes and short
// windows: a change elsewhere in the repository that breaks the benchmark's
// use of the public surface or of ucq-serve fails tier-1 here.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts ucq-serve")
	}
	reported := map[string]bool{}
	finite := func(workload string, m metrics) {
		for name, v := range m {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v", workload, name, v)
			}
		}
	}
	for _, def := range workloadDefs {
		timed, err := runWorkload(runConfig{Workload: def.Name, Seed: 1, Small: true, SetupReps: 2,
			Windows: windows{Untraced: 300 * time.Millisecond}})
		if err != nil {
			t.Fatal(err)
		}
		traced, err := runWorkload(runConfig{Workload: def.Name, Seed: 1, Small: true, SetupReps: 1,
			Windows: windows{Untraced: 150 * time.Millisecond, Traced: 300 * time.Millisecond}})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []*result{timed, traced} {
			if !r.correct() {
				t.Errorf("%s: untraced %+v traced %+v faults %v", def.Name, r.Untraced, r.Traced, r.Faults)
			}
		}
		finite(def.Name, timed.EndToEnd)
		finite(def.Name, traced.PerLayer)
		for _, d := range endToEndDefs {
			if v, ok := timed.EndToEnd[d.Name]; !ok || v <= 0 {
				t.Errorf("%s: end-to-end %s = %v, present %v", def.Name, d.Name, v, ok)
			}
		}
		for name := range traced.PerLayer {
			reported[name] = true
		}
		for _, line := range [][]byte{must(timed.contractLine(false)), must(traced.contractLine(true))} {
			var parsed struct {
				Correct   *bool                      `json:"correct"`
				Attempted int                        `json:"attempted"`
				Metrics   map[string]json.RawMessage `json:"metrics"`
			}
			if err := json.Unmarshal(line, &parsed); err != nil || parsed.Correct == nil || !*parsed.Correct || parsed.Attempted < 1 {
				t.Errorf("%s: contract line %s: %v", def.Name, line, err)
			}
			if n := len(parsed.Metrics); n != len(endToEndDefs) && n != len(perLayerDefs) {
				t.Errorf("%s: contract line carries %d metrics", def.Name, n)
			}
		}
		if _, err := os.Stat(filepath.Join("out", "trace-"+def.Name+".json")); err != nil {
			t.Errorf("%s: no trace file: %v", def.Name, err)
		}
	}
	known := map[string]bool{}
	for _, d := range perLayerDefs {
		known[d.Name] = true
		// A p99 is only reported from 1000 ops on, which 300 ms cannot reach
		// on every box.
		if !reported[d.Name] && d.Name != "client.op_ms_p99" {
			t.Errorf("no workload reported per-layer metric %s", d.Name)
		}
	}
	for name := range reported {
		if !known[name] {
			t.Errorf("per-layer metric %s is reported but not defined", name)
		}
	}
	runCleanups()
	// Only this process's leftovers: another benchmark may be running in
	// the same checkout.
	mine := fmt.Sprintf("data-%d-*", os.Getpid())
	if left, _ := filepath.Glob(filepath.Join("out", mine)); len(left) > 0 {
		t.Errorf("temporary data directories left behind: %v", left)
	}
}

func must(b []byte, err error) []byte {
	if err != nil {
		panic(err)
	}
	return b
}
