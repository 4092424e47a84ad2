package workload

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/cq"
)

// ucqPool is the fixed relation vocabulary of RandomUCQ. Sharing one
// name→arity map across all members keeps the union's schema consistent
// (UCQ.Validate requires it) and makes members join against each other's
// relations, which is where cross-engine disagreements would hide.
var ucqPool = []cq.RelDecl{
	{Name: "S1", Arity: 1},
	{Name: "R1", Arity: 2},
	{Name: "R2", Arity: 2},
	{Name: "R3", Arity: 2},
	{Name: "T1", Arity: 3},
}

// RandomUCQ generates a random small UCQ over a fixed shared schema: 1–3
// member CQs of 1–3 atoms each, bodies mixing chained, self-joined and
// disconnected atoms, heads of one shared arity drawn from each member's
// variables (occasionally boolean). The shapes deliberately range over the
// whole tractability spectrum — some unions certify free-connex and run
// through the Theorem 12 pipeline, others fall back to the naive engine —
// which is exactly what a cross-engine equivalence harness needs.
func RandomUCQ(rng *rand.Rand) *cq.UCQ {
	for {
		if u, ok := tryRandomUCQ(rng); ok {
			return u
		}
	}
}

// tryRandomUCQ makes one attempt; it reports failure instead of fighting
// the (rare) draws whose members cannot share a head arity.
func tryRandomUCQ(rng *rand.Rand) (*cq.UCQ, bool) {
	nCQ := 1 + rng.Intn(3)
	bodies := make([][]cq.Atom, nCQ)
	vars := make([][]cq.Variable, nCQ)
	minVars := -1
	for i := range bodies {
		bodies[i], vars[i] = randomBody(rng)
		if minVars < 0 || len(vars[i]) < minVars {
			minVars = len(vars[i])
		}
	}

	// All heads share one arity; 1 in 8 unions is boolean.
	maxArity := minVars
	if maxArity > 3 {
		maxArity = 3
	}
	arity := 0
	if rng.Intn(8) != 0 {
		if maxArity == 0 {
			return nil, false
		}
		arity = 1 + rng.Intn(maxArity)
	}

	cqs := make([]*cq.CQ, nCQ)
	for i := range cqs {
		head := make([]cq.Variable, arity)
		perm := rng.Perm(len(vars[i]))
		for j := 0; j < arity; j++ {
			head[j] = vars[i][perm[j]]
		}
		q, err := cq.NewCQ(fmt.Sprintf("Q%d", i+1), head, bodies[i])
		if err != nil {
			return nil, false
		}
		cqs[i] = q
	}
	u, err := cq.NewUCQ(cqs...)
	if err != nil {
		return nil, false
	}
	return u, true
}

// RandomCyclicUCQ generates a random UCQ in which at least one member CQ
// is cyclic: one body is a variable cycle of length 3–4 over the pool's
// binary relations (the triangle/square joins of the hardness side of the
// dichotomy), the remaining members come from the ordinary generator.
// Cyclic members push the union off the Theorem 12 pipeline — exactly the
// non-free-connex region a cross-engine equivalence harness must also
// cover.
func RandomCyclicUCQ(rng *rand.Rand) *cq.UCQ {
	for {
		if u, ok := tryRandomCyclicUCQ(rng); ok {
			return u
		}
	}
}

// tryRandomCyclicUCQ mirrors tryRandomUCQ with one body forced cyclic.
func tryRandomCyclicUCQ(rng *rand.Rand) (*cq.UCQ, bool) {
	nCQ := 1 + rng.Intn(3)
	cyclicAt := rng.Intn(nCQ)
	bodies := make([][]cq.Atom, nCQ)
	vars := make([][]cq.Variable, nCQ)
	minVars := -1
	for i := range bodies {
		if i == cyclicAt {
			bodies[i], vars[i] = cyclicBody(rng)
		} else {
			bodies[i], vars[i] = randomBody(rng)
		}
		if minVars < 0 || len(vars[i]) < minVars {
			minVars = len(vars[i])
		}
	}

	maxArity := minVars
	if maxArity > 3 {
		maxArity = 3
	}
	arity := 0
	if rng.Intn(8) != 0 {
		if maxArity == 0 {
			return nil, false
		}
		arity = 1 + rng.Intn(maxArity)
	}

	cqs := make([]*cq.CQ, nCQ)
	for i := range cqs {
		head := make([]cq.Variable, arity)
		perm := rng.Perm(len(vars[i]))
		for j := 0; j < arity; j++ {
			head[j] = vars[i][perm[j]]
		}
		q, err := cq.NewCQ(fmt.Sprintf("Q%d", i+1), head, bodies[i])
		if err != nil {
			return nil, false
		}
		cqs[i] = q
	}
	u, err := cq.NewUCQ(cqs...)
	if err != nil {
		return nil, false
	}
	return u, true
}

// cyclicBody builds a chordless variable cycle of length 3 or 4 over the
// pool's binary relations — R_a(v0,v1), R_b(v1,v2), R_c(v2,v0) and the
// four-atom analogue. Distinct fresh variables make the join hypergraph a
// genuine cycle, so the body is cyclic by construction.
func cyclicBody(rng *rand.Rand) ([]cq.Atom, []cq.Variable) {
	binary := []string{"R1", "R2", "R3"}
	n := 3 + rng.Intn(2)
	vars := make([]cq.Variable, n)
	for i := range vars {
		vars[i] = cq.Variable(fmt.Sprintf("v%d", i))
	}
	atoms := make([]cq.Atom, n)
	for i := range atoms {
		atoms[i] = cq.Atom{
			Rel:  binary[rng.Intn(len(binary))],
			Vars: []cq.Variable{vars[i], vars[(i+1)%n]},
		}
	}
	return atoms, vars
}

// randomBody builds 1–3 atoms over the shared pool. Each argument reuses
// an already-introduced variable with probability ~0.6, otherwise it is
// fresh — producing joins, repeated variables within an atom, self-joins
// (the same relation twice) and occasionally disconnected components.
func randomBody(rng *rand.Rand) ([]cq.Atom, []cq.Variable) {
	nAtoms := 1 + rng.Intn(3)
	var atoms []cq.Atom
	var vars []cq.Variable
	fresh := 0
	pick := func() cq.Variable {
		if len(vars) > 0 && rng.Intn(5) < 3 {
			return vars[rng.Intn(len(vars))]
		}
		v := cq.Variable(fmt.Sprintf("v%d", fresh))
		fresh++
		vars = append(vars, v)
		return v
	}
	for i := 0; i < nAtoms; i++ {
		d := ucqPool[rng.Intn(len(ucqPool))]
		args := make([]cq.Variable, d.Arity)
		for j := range args {
			args[j] = pick()
		}
		atoms = append(atoms, cq.Atom{Rel: d.Name, Vars: args})
	}
	return atoms, vars
}

// RandomProvidedUCQ generates a random union shaped like Example 2, the
// region of the dichotomy RandomUCQ almost never reaches: a member that is
// acyclic but not free-connex and becomes free-connex only through a
// virtual atom, instantiated at bind by a Lemma 8 provider run. Q1 is the
// path A(x,z), B(z,y), whose existential z blocks its free x and y, plus a
// free tail on y or on x and unary S1 atoms on x, z or y. Q2's body maps
// onto Q1's atoms around z, with the preimages of x, z and y free, so it
// can provide {x,z,y} to Q1; it copies some of Q1's other atoms too. The
// atom order, the head order and the member order vary, and one draw in
// five reverses an atom of Q2, which may break the homomorphism, so some
// unions certify without a virtual atom and some not at all.
func RandomProvidedUCQ(rng *rand.Rand) *cq.UCQ {
	binary := []string{"R1", "R2", "R3"}
	rel := func() string { return binary[rng.Intn(len(binary))] }
	atom := func(r string, vars ...cq.Variable) cq.Atom { return cq.Atom{Rel: r, Vars: vars} }
	a, b, c := rel(), rel(), rel()
	q1 := []cq.Atom{atom(a, "x", "z"), atom(b, "z", "y")}
	q2 := []cq.Atom{atom(a, "a", "b"), atom(b, "b", "c")}
	head1 := []cq.Variable{"x", "y"}
	if rng.Intn(2) == 0 {
		q1, head1 = append(q1, atom(c, "y", "w")), append(head1, "w")
		if rng.Intn(2) == 0 {
			q2 = append(q2, atom(c, "c", "d"))
		}
	} else {
		q1, head1 = append(q1, atom(c, "u", "x")), append(head1, "u")
		if rng.Intn(2) == 0 {
			q2 = append(q2, atom(c, "d", "a"))
		}
	}
	preimage := map[cq.Variable]cq.Variable{"x": "a", "z": "b", "y": "c"}
	for _, v := range []cq.Variable{"x", "z", "y"} {
		if rng.Intn(3) == 0 {
			q1 = append(q1, atom("S1", v))
			if rng.Intn(2) == 0 {
				q2 = append(q2, atom("S1", preimage[v]))
			}
		}
	}
	if rng.Intn(5) == 0 {
		slices.Reverse(q2[rng.Intn(len(q2))].Vars)
	}
	head2 := []cq.Variable{"a", "b", "c"}
	for _, s := range [][]cq.Atom{q1, q2} {
		rng.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	}
	for _, s := range [][]cq.Variable{head1, head2} {
		rng.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	}
	m1, m2 := cq.MustCQ("Q1", head1, q1), cq.MustCQ("Q2", head2, q2)
	if rng.Intn(2) == 0 {
		m1, m2 = m2, m1
	}
	return cq.MustUCQ(m1, m2)
}
