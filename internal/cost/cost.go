// Package cost is the planner's execution cost model: given what the bind
// path already knows about one (query, instance) pair — relation
// cardinalities, exact output counts where the Theorem 12 machinery
// provides them, and the machine's parallelism — it picks the source of the
// one enumeration path: the tasks run inline on the caller's goroutine
// ("sequential", Workers 0) or on the work-stealing executor ("parallel"),
// whose worker pool it sizes.
//
// The query's class decides what is *possible* (free-connex ⇒ constant
// delay); the instance's size decides what is *fast*: tiny instances and
// single-CPU machines reward no parallelism at all. Decide is a pure
// function of its Inputs, so a decision is reproducible for a given
// instance snapshot and CPU count.
package cost

import "fmt"

// Inputs is everything Decide looks at. All fields are observable at bind
// time without enumerating: Rows and Branches from the instance and the
// prepared query, Answers from the Theorem 12 counting pass (exact per
// certified branch), and CPUs from GOMAXPROCS.
type Inputs struct {
	// ConstantDelay states whether the prepared query certified
	// free-connex (the Theorem 12 pipeline) or fell back to the naive
	// evaluator.
	ConstantDelay bool
	// Rows is the instance's total tuple count across relations.
	Rows int
	// Answers is the exact output cardinality upper bound (summed branch
	// counts; certified plans only), or -1 when unknown (naive mode
	// cannot count without evaluating).
	Answers int64
	// Branches counts the union's independent top-level streams: certified
	// extensions in constant-delay mode, member CQs in naive mode.
	Branches int
	// CPUs is the parallelism available at decision time (GOMAXPROCS).
	CPUs int
}

// Decision is the resolved execution configuration plus its provenance:
// the worker count Auto picked, a human-readable reason, and the inputs
// the choice was made from, surfaced through Plan.Explain and /stats so a
// regressed decision is observable rather than a silent slowdown.
type Decision struct {
	// Workers is the resolved PlanOptions.Workers: 0 for the inline
	// source, n ≥ 1 for the work-stealing executor with n workers.
	Workers int
	// Reason explains the pick in one sentence.
	Reason string
	// Inputs echoes what the decision was made from.
	Inputs Inputs
}

// Kind names the resolved strategy: "sequential" or "parallel".
func (d *Decision) Kind() string {
	if d.Workers > 0 {
		return "parallel"
	}
	return "sequential"
}

// MinParallelWork is the smallest work — input rows plus output answers,
// the two linear terms of the Theorem 12 cost model — worth paying the
// executor's fixed costs for: worker startup and batch channels. Below it
// an inline drain finishes before a pool warms up.
const MinParallelWork = 1 << 12 // 4096 tuples

// Decide resolves the execution strategy for one bind.
func Decide(in Inputs) Decision {
	d := Decision{Inputs: in}
	work := int64(in.Rows)
	if in.Answers > 0 {
		work += in.Answers
	}
	switch {
	case !in.ConstantDelay:
		d.Reason = "naive evaluation: one join-and-deduplicate evaluator, no executor to size"
	case in.CPUs <= 1:
		d.Reason = "single CPU: the executor only adds scheduling overhead"
	case work < MinParallelWork:
		d.Reason = fmt.Sprintf("tiny instance (%d rows + answers < %d): executor startup would dominate", work, MinParallelWork)
	default:
		d.Workers = in.CPUs
		d.Reason = fmt.Sprintf("work-stealing executor: %d rows + answers across %d root-range workers", work, in.CPUs)
	}
	return d
}
