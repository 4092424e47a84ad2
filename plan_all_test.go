package ucq

import (
	"context"
	"runtime"
	"testing"
)

// TestPlanAllRangesAnswers pins the range-over-func adapter: All yields
// exactly the iterator's answer set, supports early break, and leaves no
// goroutine behind when the range is abandoned.
func TestPlanAllRangesAnswers(t *testing.T) {
	u := MustParse(catalogExample2)
	inst := example2SmallInstance()

	plan, err := NewPlan(u, inst, nil)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for tup := range plan.All(nil) {
		seen[tup.String()] = true
	}
	if len(seen) != 6 {
		t.Errorf("ranged over %d distinct answers, want 6", len(seen))
	}

	// Early break mid-range.
	n := 0
	for range plan.All(nil) {
		n++
		if n == 2 {
			break
		}
	}
	if n != 2 {
		t.Errorf("early break ranged over %d answers, want 2", n)
	}

	// Abandoned ranges leave no goroutine behind.
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		for range plan.All(nil) {
			break
		}
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Errorf("goroutines after 10 abandoned ranges: %d, baseline %d", g, before)
	}

	// A cancelled context ends the range early without error.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	n = 0
	for range plan.All(ctx) {
		n++
	}
	if n != 0 {
		t.Errorf("cancelled ctx ranged over %d answers, want 0", n)
	}
}
