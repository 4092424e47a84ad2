package yannakakis

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/cq"
)

// splitTestPlan prepares a three-top chain plan over a randomized instance
// with a few hundred answers.
func splitTestPlan(t *testing.T, seed int64) *Plan {
	t.Helper()
	q := cq.MustParseCQ("Q(x,y,w) <- R1(x,y), R2(y,w).")
	rng := rand.New(rand.NewSource(seed))
	rels := map[string][][]int64{"R1": nil, "R2": nil}
	for i := 0; i < 120; i++ {
		rels["R1"] = append(rels["R1"], []int64{rng.Int63n(40), rng.Int63n(12)})
		rels["R2"] = append(rels["R2"], []int64{rng.Int63n(12), rng.Int63n(40)})
	}
	plan, err := Prepare(q, makeInstance(rels), nil)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// drainHeads collects an iterator's head tuples as strings.
func drainHeads(it *Iterator) []string {
	var out []string
	for it.Next() {
		out = append(out, it.HeadTuple().String())
	}
	return out
}

// checkPartition asserts the answer multisets in parts form a duplicate-free
// partition of want.
func checkPartition(t *testing.T, want []string, parts ...[]string) {
	t.Helper()
	var got []string
	for _, p := range parts {
		got = append(got, p...)
	}
	sort.Strings(got)
	w := append([]string(nil), want...)
	sort.Strings(w)
	if strings.Join(got, "\n") != strings.Join(w, "\n") {
		t.Fatalf("split streams disagree with the full stream:\ngot %d answers, want %d", len(got), len(w))
	}
	for i := 1; i < len(got); i++ {
		if got[i] == got[i-1] {
			t.Fatalf("duplicate answer across splits: %s", got[i])
		}
	}
}

func TestSplitOffUnstartedAndMidStream(t *testing.T) {
	plan := splitTestPlan(t, 2)
	want := drainHeads(plan.Iterator())

	// Unstarted iterator: SplitOff halves the root range.
	it := plan.Iterator()
	half := it.SplitOff()
	if half == nil {
		t.Fatal("SplitOff on a fresh full iterator returned nil")
	}
	checkPartition(t, want, drainHeads(it), drainHeads(half))

	// Mid-stream: consume a prefix, then split; the receiver keeps the
	// current root row, the half takes later rows, nothing is lost or
	// repeated.
	it = plan.Iterator()
	var prefix []string
	for i := 0; i < 5 && it.Next(); i++ {
		prefix = append(prefix, it.HeadTuple().String())
	}
	half = it.SplitOff()
	rest := drainHeads(it)
	var stolen []string
	if half != nil {
		stolen = drainHeads(half)
	}
	checkPartition(t, want, prefix, rest, stolen)
}

func TestSplitOffUntilExhausted(t *testing.T) {
	// Recursively splitting every iterator down to nil still yields a
	// partition — the executor's steal-until-dry behaviour.
	plan := splitTestPlan(t, 3)
	want := drainHeads(plan.Iterator())
	queue := []*Iterator{plan.Iterator()}
	var streams [][]string
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		if half := it.SplitOff(); half != nil {
			queue = append(queue, half)
		}
		var got []string
		// Interleave draining with further splits.
		for i := 0; i < 3 && it.Next(); i++ {
			got = append(got, it.HeadTuple().String())
		}
		if half := it.SplitOff(); half != nil {
			queue = append(queue, half)
		}
		got = append(got, drainHeads(it)...)
		streams = append(streams, got)
	}
	checkPartition(t, want, streams...)
	if exhausted := plan.Iterator(); exhausted != nil {
		drainHeads(exhausted)
		if exhausted.SplitOff() != nil {
			t.Error("SplitOff on an exhausted iterator returned work")
		}
	}
}

func TestIteratorRangeClamps(t *testing.T) {
	plan := splitTestPlan(t, 4)
	n := plan.RootLen()
	if n == 0 {
		t.Fatal("no root rows")
	}
	if got := drainHeads(plan.IteratorRange(-5, n+5)); len(got) != len(drainHeads(plan.Iterator())) {
		t.Errorf("clamped full range enumerates %d answers", len(got))
	}
	if got := drainHeads(plan.IteratorRange(3, 2)); got != nil {
		t.Errorf("inverted range produced %d answers", len(got))
	}
	lo, hi := plan.IteratorRange(1, 3).RootRange()
	if lo != 1 || hi != 3 {
		t.Errorf("RootRange = [%d,%d), want [1,3)", lo, hi)
	}
}
