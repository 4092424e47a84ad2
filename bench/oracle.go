package main

// Correctness oracle. Every op of every workload is checked against the
// answer count and an order-independent checksum that the naive evaluator
// produced for the same (query, instance); an op that disagrees counts in
// ops_failed, never in answers_per_s.

import (
	"fmt"

	ucq "repro"
)

// expect identifies an answer set without storing it: the number of
// answers and the wrapping sum of their hashes. The engine emits each
// answer once, so a dropped tuple changes the count, and a dropped tuple
// paired with a duplicated one keeps the count but shifts the sum.
type expect struct {
	Count int
	Sum   uint64
}

// add folds one more answer in.
func (e *expect) add(t ucq.Tuple) {
	e.Count++
	e.Sum += tupleHash(t)
}

// plus returns the union of two disjoint answer sets.
func (e expect) plus(o expect) expect {
	return expect{Count: e.Count + o.Count, Sum: e.Sum + o.Sum}
}

// tupleHash mixes the tuple's values position-sensitively (splitmix64
// finaliser per value), so permuted columns hash differently.
func tupleHash(t ucq.Tuple) uint64 {
	h := uint64(len(t))
	for _, v := range t {
		h = mix64(h ^ uint64(v))
	}
	return h
}

func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// expectRows is the closed-form side of the oracle: the expect of answers
// the generator already knows (serve-mixed's per-append additions).
func expectRows(answers [][]int64) expect {
	var e expect
	t := make(ucq.Tuple, 0, 4)
	for _, a := range answers {
		t = t[:0]
		for _, v := range a {
			t = append(t, ucq.V(v))
		}
		e.add(t)
	}
	return e
}

// oracle evaluates query over rels with the naive evaluator — the one
// engine path the certified pipeline shares no code with.
func oracle(query string, rels rows) (expect, error) {
	var e expect
	u, err := ucq.Parse(query)
	if err != nil {
		return e, fmt.Errorf("oracle: parsing query: %w", err)
	}
	pq, err := ucq.Prepare(u, &ucq.PlanOptions{ForceNaive: true})
	if err != nil {
		return e, fmt.Errorf("oracle: preparing: %w", err)
	}
	inst, err := ucq.InstanceFromRows(rels)
	if err != nil {
		return e, fmt.Errorf("oracle: building instance: %w", err)
	}
	plan, err := pq.Bind(inst)
	if err != nil {
		return e, fmt.Errorf("oracle: binding: %w", err)
	}
	it := plan.Iterator()
	defer ucq.CloseAnswers(it)
	for t, ok := it.Next(); ok; t, ok = it.Next() {
		e.add(t)
	}
	if err := ucq.AnswersErr(it); err != nil {
		return e, fmt.Errorf("oracle: enumerating: %w", err)
	}
	return e, nil
}
