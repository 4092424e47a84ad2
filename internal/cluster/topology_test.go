package cluster

import (
	"fmt"
	"sort"
	"strings"
	"testing"
)

func TestNormalizeWorkers(t *testing.T) {
	got, err := NormalizeWorkers([]string{"w1:8454", "http://w2:8454/", "https://w3"})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"http://w1:8454", "http://w2:8454", "https://w3"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("NormalizeWorkers = %v, want %v", got, want)
	}

	for _, bad := range [][]string{
		{},
		{""},
		{"  "},
		{"w1:8454", "w1:8454"},
		{"w1:8454", "http://w1:8454"}, // same node after normalization
		{"ftp://w1:8454"},
		{"http://w1:8454/api"},
		{"http://"},
	} {
		if got, err := NormalizeWorkers(bad); err == nil {
			t.Errorf("NormalizeWorkers(%q) = %v, want error", bad, got)
		}
	}
}

func TestParseWorkerList(t *testing.T) {
	got, err := ParseWorkerList(" w1:8454, http://w2:8454 ,,")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"http://w1:8454", "http://w2:8454"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("ParseWorkerList = %v, want %v", got, want)
	}
	if _, err := ParseWorkerList(""); err == nil {
		t.Error("empty list accepted")
	}
}

func TestRendezvousOrder(t *testing.T) {
	workers := []string{"http://w1:8454", "http://w2:8454", "http://w3:8454", "http://w4:8454"}

	// Deterministic: same key, same order, independent of input order.
	order := rendezvousOrder(workers, "orders\x00Q(x) <- R(x).")
	shuffled := []string{workers[2], workers[0], workers[3], workers[1]}
	order2 := rendezvousOrder(shuffled, "orders\x00Q(x) <- R(x).")
	if fmt.Sprint(order) != fmt.Sprint(order2) {
		t.Errorf("order depends on input permutation: %v vs %v", order, order2)
	}

	// A permutation of the worker set, every time.
	sorted := append([]string(nil), order...)
	sort.Strings(sorted)
	wantSorted := append([]string(nil), workers...)
	sort.Strings(wantSorted)
	if fmt.Sprint(sorted) != fmt.Sprint(wantSorted) {
		t.Fatalf("order %v is not a permutation of %v", order, workers)
	}

	// Spread: over many keys, every worker owns (heads the order for) some
	// key — HRW should not collapse onto one node.
	owners := make(map[string]int)
	for i := 0; i < 256; i++ {
		key := fmt.Sprintf("ds-%d\x00Q(x) <- R%d(x).", i, i)
		owners[rendezvousOrder(workers, key)[0]]++
	}
	for _, w := range workers {
		if owners[w] == 0 {
			t.Errorf("worker %s never owns a key: %v", w, owners)
		}
	}

	// Removing one worker only reassigns the keys it owned: HRW's minimal
	// disruption property, the reason rendezvous beats mod-N here.
	trimmed := workers[:3]
	moved := 0
	for i := 0; i < 256; i++ {
		key := fmt.Sprintf("ds-%d\x00Q(x) <- R%d(x).", i, i)
		before := rendezvousOrder(workers, key)[0]
		after := rendezvousOrder(trimmed, key)[0]
		if before != after {
			moved++
			if before != workers[3] {
				t.Fatalf("key %d moved from surviving worker %s to %s", i, before, after)
			}
		}
	}
	if moved == 0 {
		t.Error("removing a worker moved no keys (it owned none?)")
	}
}

// TestStableStringHashVectors pins exact StableStringHash outputs: cluster
// rendezvous placement depends on every coordinator instance agreeing, so
// a hash change that would be harmless in one process is a placement-
// breaking change here.
func TestStableStringHashVectors(t *testing.T) {
	vectors := []struct {
		s    string
		hash uint64
	}{
		{"", 0xefd01f60ba992926},
		{"a", 0x82a2a958a9bece5b},
		{"orders", 0x32520fbdb4dad5b9},
		{"http://w1:8454", 0xfb82f0e7e6261ada},
		{"skewed-join", 0x967754413beacc30},
	}
	for _, tc := range vectors {
		if got := StableStringHash(tc.s); got != tc.hash {
			t.Errorf("StableStringHash(%q) = %#x, pinned %#x", tc.s, got, tc.hash)
		}
	}
}

func TestWorkerStatusUnwraps(t *testing.T) {
	err := fmt.Errorf("outer: %w", &workerError{worker: "http://w1:8454", status: 409, msg: "version"})
	status, ok := WorkerStatus(err)
	if !ok || status != 409 {
		t.Errorf("WorkerStatus = %d, %v", status, ok)
	}
	if _, ok := WorkerStatus(fmt.Errorf("plain")); ok {
		t.Error("plain error reported a worker status")
	}
	if !strings.Contains(err.Error(), "409") {
		t.Errorf("worker error text %q lacks the status", err)
	}
}
