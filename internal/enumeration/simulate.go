package enumeration

import (
	"repro/internal/database"
)

// Event is one unit of work performed by a simulated enumeration
// algorithm: Steps computation steps followed by the optional emission of
// Result. A stall is an event with large Steps and no Result.
type Event struct {
	Steps  int
	Result database.Tuple
}

// Schedule records, for each emitted answer, the global step time of its
// emission.
type Schedule []int

// MaxDelay returns the largest gap between consecutive emissions (and the
// time to the first emission).
func (s Schedule) MaxDelay() int {
	maxd := 0
	prev := 0
	for _, t := range s {
		if d := t - prev; d > maxd {
			maxd = d
		}
		prev = t
	}
	return maxd
}

// SimulateRaw replays the events directly: each result is emitted the
// moment its event completes. The schedule's maximum delay exposes the
// stalls of the raw algorithm.
func SimulateRaw(events []Event) Schedule {
	var out Schedule
	now := 0
	for _, e := range events {
		now += e.Steps
		if e.Result != nil {
			out = append(out, now)
		}
	}
	return out
}

// SimulateCheater replays the events through the construction in the proof
// of the Cheater's Lemma (Lemma 5): the wrapper simulates the inner
// algorithm step by step, enqueues fresh results (filtering duplicates via
// a lookup table), spends the first n·p steps silently, and thereafter
// emits one queued result every m·d steps, draining the queue at the end.
//
// Under the lemma's preconditions — at most n delays exceeding d (each at
// most p) and every result duplicated at most m times — the queue is never
// empty when an emission is due, so the output schedule has preprocessing
// n·p + m·d and maximum delay m·d. All results must have one width.
func SimulateCheater(events []Event, n, p, d, m int) Schedule {
	var seen *database.KeySet // the lookup table, as wide as the first result
	pending := 0
	var out Schedule

	preprocessing := n * p
	interval := m * d
	now := 0
	nextEmit := preprocessing + interval

	emitDue := func() {
		for pending > 0 && now >= nextEmit {
			pending--
			out = append(out, nextEmit)
			nextEmit += interval
		}
	}

	for _, e := range events {
		// Advance through the event's computation steps, emitting queued
		// results at every due instant that passes.
		target := now + e.Steps
		for now < target {
			step := target - now
			if pending > 0 && nextEmit-now < step {
				step = nextEmit - now
			}
			now += step
			emitDue()
		}
		if e.Result != nil {
			if seen == nil {
				seen = database.NewKeySet(len(e.Result))
			}
			if _, fresh := seen.Add(e.Result); fresh {
				pending++
			}
			emitDue()
		}
	}
	// Drain the queue: the inner algorithm has terminated; remaining
	// results are emitted at the regular cadence.
	for pending > 0 {
		if now < nextEmit {
			now = nextEmit
		}
		pending--
		out = append(out, now)
		nextEmit = now + interval
	}
	return out
}

// BurstyEvents builds a synthetic inner algorithm for the Lemma 5
// demonstration: `results` distinct answers, each emitted `dup` times at
// unit delay, with `stalls` stalls of `stallLen` steps inserted evenly.
func BurstyEvents(results, dup, stalls, stallLen int, mk func(i int) database.Tuple) []Event {
	var events []Event
	every := results / (stalls + 1)
	if every == 0 {
		every = 1
	}
	for i := 0; i < results; i++ {
		if stalls > 0 && i > 0 && i%every == 0 {
			events = append(events, Event{Steps: stallLen})
			stalls--
		}
		for d := 0; d < dup; d++ {
			events = append(events, Event{Steps: 1, Result: mk(i)})
		}
	}
	return events
}
