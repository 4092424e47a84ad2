// Package reduction implements the paper's lower-bound constructions as
// executable reductions: given an instance of a hard problem (Boolean
// matrix multiplication, triangle detection, 4-clique detection), it builds
// the database instance the corresponding proof prescribes, and decodes the
// UCQ's answers back into solutions of the hard problem.
//
// These reductions are how the paper argues that UCQ enumeration cannot be
// in DelayClin: if it were, the decoded answers would beat the conjectured
// lower bound. The experiment harness runs them forward — encode, evaluate,
// decode, compare against the direct solver — to validate each
// construction and measure its answer-set sizes.
//
// Variable tagging. Several proofs "concatenate the variable names to the
// values" (Lemma 14, Examples 18, 31, 39). This package realises it with an
// encoding of its own (tagged, untag): each query variable gets a tag, and
// every value flowing through that variable carries it. Tags make distinct
// variables range over disjoint domains and let a decoder identify which
// CQ produced an answer by its head tag pattern. The rest of the system
// sees plain int64 values.
package reduction

import (
	"fmt"

	"repro/internal/classify"
	"repro/internal/cq"
	"repro/internal/database"
	"repro/internal/hypergraph"
	"repro/internal/matrix"
)

// payloadBits is the width of a tagged value's signed payload; the tag
// takes the byte above it.
const payloadBits = 56

// tagged encodes payload c of the variable with the given tag as one value,
// injectively in (c, tag). It panics when c lies outside ±2^55; the
// reductions' payloads are vertex and matrix indexes, far below that.
func tagged(c int64, tag uint8) database.Value {
	if c >= 1<<(payloadBits-1) || c < -1<<(payloadBits-1) {
		panic(fmt.Sprintf("reduction: payload %d out of range", c))
	}
	return database.Value(int64(tag)<<payloadBits | c&(1<<payloadBits-1))
}

// untag inverts tagged: it returns the payload, sign-extended, and the tag.
func untag(v database.Value) (int64, uint8) {
	return int64(v) << (64 - payloadBits) >> (64 - payloadBits), uint8(uint64(v) >> payloadBits)
}

// VarTags assigns each variable of the query a distinct non-zero tag, in
// sorted variable order.
func VarTags(vars cq.VarSet) map[cq.Variable]uint8 {
	sorted := vars.Sorted()
	if len(sorted) > 255 {
		panic("reduction: more than 255 variables")
	}
	out := make(map[cq.Variable]uint8, len(sorted))
	for i, v := range sorted {
		out[v] = uint8(i + 1)
	}
	return out
}

// TagCQInstance implements the σ mapping of Lemma 14: every value in the
// relation of atom Ri(v⃗) is tagged with its variable, giving each variable
// a disjoint domain; relations of the schema that do not occur in q are
// left empty. Answers of the resulting union are exactly the (tagged)
// answers of q (when no other CQ has a body-homomorphism into q). Values
// must fit a tagged payload (see tagged).
func TagCQInstance(q *cq.CQ, inst *database.Instance, schema []cq.RelDecl) (*database.Instance, error) {
	tags := VarTags(q.Vars())
	out := database.NewInstance()
	for _, d := range schema {
		out.AddRelation(database.NewRelation(d.Name, d.Arity))
	}
	for _, a := range q.Atoms {
		src := inst.Relation(a.Rel)
		if src == nil {
			return nil, fmt.Errorf("reduction: no relation %q", a.Rel)
		}
		if src.Arity() != len(a.Vars) {
			return nil, fmt.Errorf("reduction: atom %s arity mismatch", a)
		}
		dst := out.Relation(a.Rel)
		if dst == nil {
			dst = database.NewRelation(a.Rel, len(a.Vars))
			out.AddRelation(dst)
		}
		row := make(database.Tuple, len(a.Vars))
		for i := 0; i < src.Len(); i++ {
			t := src.Row(i)
			for c, v := range a.Vars {
				row[c] = tagged(int64(t[c]), tags[v])
			}
			dst.Append(row...)
		}
	}
	return out, nil
}

// UntagTuple strips tags, recovering the τ mapping of Lemma 14.
func UntagTuple(t database.Tuple) database.Tuple {
	out := make(database.Tuple, len(t))
	for i, v := range t {
		c, _ := untag(v)
		out[i] = database.Value(c)
	}
	return out
}

// TagPattern returns the tags of a tuple, used to attribute an answer to
// the CQ whose head produced it.
func TagPattern(t database.Tuple) []uint8 {
	out := make([]uint8, len(t))
	for i, v := range t {
		_, out[i] = untag(v)
	}
	return out
}

// MatMulEncoding is the Lemma 25 construction: a union of two self-join
// free body-isomorphic acyclic CQs in which some free-path of one CQ is not
// guarded by the other admits an encoding of Boolean matrix multiplication
// whose answer decodes from the union's answers, while the other CQ
// contributes only O(n²) extra answers.
type MatMulEncoding struct {
	// U is the union; Target is the index of the CQ carrying the
	// unguarded free-path Path.
	U      *cq.UCQ
	Target int
	Path   hypergraph.FreePath
	// Vx, Vz, Vy partition the path per the proof of Lemma 25.
	Vx, Vz, Vy cq.VarSet

	rw      *classify.Rewritten
	tags    map[cq.Variable]uint8
	groupA  []bool // per reference atom: true = encodes matrix A
	headTag [][]uint8
	aPos    int // position of the path's first endpoint in the target head
	cPos    int // position of the path's last endpoint in the target head
}

// NewMatMulEncoding locates an unguarded free-path in a two-CQ
// body-isomorphic union and prepares the Lemma 25 construction. It errors
// when the union does not satisfy the lemma's preconditions.
func NewMatMulEncoding(u *cq.UCQ) (*MatMulEncoding, error) {
	if len(u.CQs) != 2 {
		return nil, fmt.Errorf("reduction: Lemma 25 needs exactly two CQs")
	}
	if !u.SelfJoinFree() {
		return nil, fmt.Errorf("reduction: Lemma 25 needs self-join free CQs")
	}
	rw, ok := classify.RewriteBodyIsomorphic(u)
	if !ok {
		return nil, fmt.Errorf("reduction: CQs are not body-isomorphic")
	}
	if !rw.H.IsAcyclic() {
		return nil, fmt.Errorf("reduction: bodies are cyclic; Lemma 25 needs acyclic CQs")
	}
	e := &MatMulEncoding{U: u, rw: rw, tags: VarTags(rw.Body.Vars())}

	// Find a target CQ with a free-path not guarded by the other CQ.
	for target := 0; target < 2; target++ {
		other := 1 - target
		for _, p := range rw.FreePathsOf(target) {
			if rw.Frees[other].ContainsAll(p.VarSet()) {
				continue
			}
			e.Target = target
			e.Path = p
			e.split(rw.Frees[other])
			if err := e.finish(); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, fmt.Errorf("reduction: every free-path is guarded; Lemma 25 does not apply")
}

// split computes Vx, Vz, Vy from the first path variable outside the other
// CQ's free set, exactly as in the proof.
func (e *MatMulEncoding) split(otherFree cq.VarSet) {
	p := e.Path
	i := -1
	for idx, v := range p {
		if !otherFree[v] {
			i = idx
			break
		}
	}
	last := len(p) - 1
	e.Vx, e.Vz, e.Vy = make(cq.VarSet), make(cq.VarSet), make(cq.VarSet)
	if i <= 0 || i >= last {
		// An endpoint is unguarded: Vx = {z0}, Vz = interior, Vy = {zk+1}.
		e.Vx.Add(p[0])
		for _, v := range p.Interior() {
			e.Vz.Add(v)
		}
		e.Vy.Add(p[last])
		return
	}
	for _, v := range p[:i] {
		e.Vx.Add(v)
	}
	e.Vz.Add(p[i])
	for _, v := range p[i+1:] {
		e.Vy.Add(v)
	}
}

// finish partitions the atoms (A-group: atoms containing a Vx variable)
// and records the head tag patterns and decode positions.
func (e *MatMulEncoding) finish() error {
	e.groupA = make([]bool, len(e.rw.Body.Atoms))
	for i, a := range e.rw.Body.Atoms {
		vars := a.VarSet()
		for v := range e.Vx {
			if vars[v] {
				e.groupA[i] = true
			}
		}
		if e.groupA[i] {
			for v := range e.Vy {
				if vars[v] {
					return fmt.Errorf("reduction: internal error: atom %s spans Vx and Vy on a chordless path", a)
				}
			}
		}
	}
	e.headTag = make([][]uint8, 2)
	for i := 0; i < 2; i++ {
		head := e.rw.RewrittenHead(i)
		e.headTag[i] = make([]uint8, len(head))
		for k, v := range head {
			e.headTag[i][k] = e.tags[v]
		}
	}
	targetHead := e.rw.RewrittenHead(e.Target)
	e.aPos, e.cPos = -1, -1
	z0, zl := e.Path.Endpoints()
	for k, v := range targetHead {
		if v == z0 && e.aPos < 0 {
			e.aPos = k
		}
		if v == zl && e.cPos < 0 {
			e.cPos = k
		}
	}
	if e.aPos < 0 || e.cPos < 0 {
		return fmt.Errorf("reduction: internal error: free-path endpoints missing from the target head")
	}
	return nil
}

// bottom is the ⊥ payload: one above the matrix dimension.
func bottom(n int) int64 { return int64(n) }

// Instance builds the database of the reduction for matrices A and B of
// dimension n: atoms containing a Vx variable receive one tuple per 1 of
// A, the remaining atoms one tuple per 1 of B, with variables valued by
// their class (Vx→row, Vz→mid, Vy→col, others ⊥) and tagged per variable.
func (e *MatMulEncoding) Instance(a, b *matrix.Bool) *database.Instance {
	if a.N() != b.N() {
		panic("reduction: matrix dimensions differ")
	}
	n := a.N()
	inst := database.NewInstance()
	value := func(v cq.Variable, row, col int64) database.Value {
		switch {
		case e.Vx[v]:
			return tagged(row, e.tags[v])
		case e.Vz[v]:
			return tagged(col, e.tags[v])
		default:
			return tagged(bottom(n), e.tags[v])
		}
	}
	valueB := func(v cq.Variable, mid, col int64) database.Value {
		switch {
		case e.Vz[v]:
			return tagged(mid, e.tags[v])
		case e.Vy[v]:
			return tagged(col, e.tags[v])
		default:
			return tagged(bottom(n), e.tags[v])
		}
	}
	for i, atom := range e.rw.Body.Atoms {
		rel := database.NewRelation(atom.Rel, len(atom.Vars))
		var pairs [][2]int
		if e.groupA[i] {
			pairs = a.Pairs()
		} else {
			pairs = b.Pairs()
		}
		row := make(database.Tuple, len(atom.Vars))
		for _, pr := range pairs {
			for c, v := range atom.Vars {
				if e.groupA[i] {
					row[c] = value(v, int64(pr[0]), int64(pr[1]))
				} else {
					row[c] = valueB(v, int64(pr[0]), int64(pr[1]))
				}
			}
			rel.Append(row...)
		}
		rel.Dedup()
		inst.AddRelation(rel)
	}
	return inst
}

// DecodeProduct extracts the Boolean product from the union's answers:
// answers whose tag pattern matches the target CQ's head carry a row value
// at the first path endpoint and a column value at the last.
func (e *MatMulEncoding) DecodeProduct(answers *database.Relation, n int) *matrix.Bool {
	out := matrix.New(n)
	want := e.headTag[e.Target]
	for i := 0; i < answers.Len(); i++ {
		t := answers.Row(i)
		match := true
		for k, tag := range TagPattern(t) {
			if tag != want[k] {
				match = false
				break
			}
		}
		if !match {
			continue
		}
		r, _ := untag(t[e.aPos])
		c, _ := untag(t[e.cPos])
		if r >= 0 && r < int64(n) && c >= 0 && c < int64(n) {
			out.Set(int(r), int(c))
		}
	}
	return out
}

// OtherAnswerBound returns the proof's bound on the non-target CQ's
// answers: at most 2n².
func (e *MatMulEncoding) OtherAnswerBound(n int) int { return 2 * n * n }
