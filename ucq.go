// Package ucq is a library for evaluating and classifying Unions of
// Conjunctive Queries (UCQs) with constant-delay enumeration, implementing
// Carmeli & Kröll, "On the Enumeration Complexity of Unions of Conjunctive
// Queries" (PODS 2019).
//
// # What it does
//
//   - Parse CQs and UCQs from a datalog-style syntax.
//   - Classify a query's enumeration complexity with respect to DelayClin
//     (linear preprocessing, constant delay): tractable with an executable
//     free-connexity certificate (Theorems 4 and 12), intractable with the
//     paper's conditional lower bounds (Lemmas 14/15, Theorems 17/29/33),
//     or honestly Unknown where the paper leaves the problem open.
//   - Evaluate queries: certified free-connex UCQs run with linear
//     preprocessing and constant delay through union extensions and
//     provider enumeration (Lemma 8), deduplicated by constant-time
//     membership tests in the manner of Algorithm 1 (a CQ's answer is
//     emitted iff no earlier CQ of the union contains it) — no answer set
//     is held in memory; everything else falls back to a naive join with
//     no delay guarantee.
//
// # Quick start
//
//	q := ucq.MustParse(`
//	    Q1(x,y,w) <- R1(x,z), R2(z,y), R3(y,w).
//	    Q2(x,y,w) <- R1(x,y), R2(y,w).
//	`)
//	res, _ := ucq.Classify(q)          // tractable (Theorem 12)
//	plan, _ := ucq.NewPlan(q, inst, nil)
//	it := plan.Iterator()
//	for t, ok := it.Next(); ok; t, ok = it.Next() { use(t) }
//
// See the examples/ directory for complete programs and cmd/ucq-experiments
// for the reproduction of the paper's results.
package ucq

import (
	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/database"
	"repro/internal/enumeration"
)

// Core query and data types, re-exported from the internal packages.
type (
	// UCQ is a union of conjunctive queries with positional head semantics.
	UCQ = cq.UCQ
	// CQ is a single conjunctive query.
	CQ = cq.CQ
	// Atom is a relational atom of a query body.
	Atom = cq.Atom
	// Variable is a query variable.
	Variable = cq.Variable
	// VarSet is a set of variables.
	VarSet = cq.VarSet
	// RelDecl is a relation name with its arity.
	RelDecl = cq.RelDecl

	// Instance is an in-memory database instance.
	Instance = database.Instance
	// Relation is a table of tuples.
	Relation = database.Relation
	// Tuple is a row of values.
	Tuple = database.Tuple
	// Value is a database constant: any int64.
	Value = database.Value

	// Answers is a stream of answer tuples.
	Answers = enumeration.Iterator

	// Result is a classification outcome.
	Result = classify.Result
	// Verdict is the classification verdict.
	Verdict = classify.Verdict
	// CQClass is the Theorem 3 trichotomy for single CQs.
	CQClass = classify.CQClass
	// Certificate is an executable free-connexity witness.
	Certificate = core.Certificate
)

// Verdicts.
const (
	Tractable   = classify.Tractable
	Intractable = classify.Intractable
	Unknown     = classify.Unknown
)

// CQ classes (Theorem 3).
const (
	FreeConnex           = classify.FreeConnex
	AcyclicNotFreeConnex = classify.AcyclicNotFreeConnex
	Cyclic               = classify.Cyclic
)

// Parse reads a UCQ in datalog-style syntax:
//
//	Q1(x,y) <- R(x,z), S(z,y).
//	Q2(x,y) <- R(x,y), T(y).
//
// `:-` is accepted for `<-`, trailing periods are optional, and `#`, `//`
// and `%` start line comments.
func Parse(src string) (*UCQ, error) { return cq.Parse(src) }

// ParseCQ parses a single conjunctive query.
func ParseCQ(src string) (*CQ, error) { return cq.ParseCQ(src) }

// MustParse is Parse panicking on error.
func MustParse(src string) *UCQ { return cq.MustParse(src) }

// MustParseCQ is ParseCQ panicking on error.
func MustParseCQ(src string) *CQ { return cq.MustParseCQ(src) }

// NewVarSet builds a variable set.
func NewVarSet(vs ...Variable) VarSet { return cq.NewVarSet(vs...) }

// NewInstance creates an empty database instance.
func NewInstance() *Instance { return database.NewInstance() }

// NewRelation creates an empty relation with the given name and arity.
func NewRelation(name string, arity int) *Relation { return database.NewRelation(name, arity) }

// V builds a value.
func V(x int64) Value { return database.V(x) }

// Classify determines the enumeration complexity of the union with respect
// to DelayClin, per the paper's upper and lower bounds.
func Classify(u *UCQ) (*Result, error) { return classify.ClassifyUCQ(u) }

// ClassifyCQ computes the structural class of a single CQ (Theorem 3).
func ClassifyCQ(q *CQ) CQClass { return classify.ClassifyCQ(q) }

// FindCertificate searches for a free-connexity certificate (Definition 11)
// for the union, within the search bounds that are complete for every
// example in the paper.
func FindCertificate(u *UCQ) (*Certificate, bool) {
	return core.FindCertificate(u, nil)
}
