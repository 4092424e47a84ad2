package yannakakis

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/cq"
	"repro/internal/database"
	"repro/internal/hypergraph"
	"repro/internal/workload"
)

// checkConnexShape asserts what Figure 1 asks of a compiled shape: every
// top lies inside S and the tops together span exactly S, the tops' tree
// is a join tree, and the tops with the atoms hung below them form a join
// tree of an inclusive extension of H(q).
func checkConnexShape(t *testing.T, sh *Shape, s cq.VarSet) {
	t.Helper()
	sets := make([]cq.VarSet, len(sh.tops))
	parent := make([]int, len(sh.tops))
	root := -1
	span := make(cq.VarSet)
	for i, top := range sh.tops {
		sets[i] = cq.NewVarSet(top.vars...)
		if !s.ContainsAll(sets[i]) {
			t.Errorf("%s: top %d %v exceeds S %v", sh.Q, i, sets[i], s)
		}
		span.AddAll(sets[i])
		parent[i] = top.parent
		if top.parent < 0 {
			root = i
		}
	}
	if !span.Equal(s) {
		t.Errorf("%s: tops span %v, want exactly %v", sh.Q, span, s)
	}
	jt := &hypergraph.JoinTree{H: hypergraph.FromVarSets(sets...), Root: root, Parent: parent}
	if err := jt.Verify(); err != nil {
		t.Errorf("%s: top tree is not a join tree: %v", sh.Q, err)
	}
	if _, err := sh.ConnexTree(); err != nil {
		t.Errorf("%s: %v", sh.Q, err)
	}
}

// TestFigure1ConnexTree reproduces Figure 1 of the paper: the hypergraph H
// with edges {v,w}, {w,y,z}, {x,y} has an ext-{x,y,z}-connex tree.
func TestFigure1ConnexTree(t *testing.T) {
	q := cq.MustParseCQ("Q(x,y,z) <- A(v,w), B(w,y,z), C(x,y).")
	s := cq.NewVarSet("x", "y", "z")
	if !hypergraph.FromCQ(q).IsSConnex(s) {
		t.Fatalf("Figure 1 hypergraph not {x,y,z}-connex")
	}
	sh, err := Compile(q, s)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	checkConnexShape(t, sh, s)
	// The paper's tree uses the top nodes {y,z} and {x,y}.
	if sh.NumTops() != 2 {
		t.Errorf("%d tops, want 2", sh.NumTops())
	}
}

func TestConnexTreeRejectsNonConnex(t *testing.T) {
	q := cq.MustParseCQ("Q(x,y) <- R(x,z), S(z,y).")
	if _, err := Compile(q, cq.NewVarSet("x", "y")); err == nil {
		t.Errorf("shape compiled for non-connex S")
	}
	qc := cq.MustParseCQ("Q(x) <- R(x,y), S(y,z), T(z,x).")
	if _, err := Compile(qc, cq.NewVarSet("x")); err == nil {
		t.Errorf("shape compiled for a cyclic query")
	}
	if _, err := Compile(q, cq.NewVarSet("x", "nope")); err == nil {
		t.Errorf("shape compiled for S with unknown variables")
	}
}

func TestConnexTreeDisconnectedQuery(t *testing.T) {
	// Q(x,y) <- R(x), S(y): the S-part is two singleton tops.
	q := cq.MustParseCQ("Q(x,y) <- R(x), S(y).")
	sh, err := Compile(q, nil)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	checkConnexShape(t, sh, q.Free())
	if sh.NumTops() < 2 {
		t.Errorf("expected at least two top nodes, got %d", sh.NumTops())
	}
}

func TestConnexTreeBooleanQuery(t *testing.T) {
	q := cq.MustParseCQ("Q() <- R(x,z), S(z,y).")
	sh, err := Compile(q, cq.NewVarSet())
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	checkConnexShape(t, sh, cq.NewVarSet())
	for i, top := range sh.tops {
		if len(top.vars) != 0 {
			t.Errorf("boolean query top %d has variables %v", i, top.vars)
		}
	}
}

func TestConnexTreeOnPaperExample2(t *testing.T) {
	// Q2(x,y,w) <- R1(x,y), R2(y,w) from Example 2 is free-connex; its
	// {x,y,w}-connex tree exists (Figure 2, left).
	q2 := cq.MustParseCQ("Q2(x,y,w) <- R1(x,y), R2(y,w).")
	sh, err := Compile(q2, nil)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	checkConnexShape(t, sh, q2.Free())
}

// TestRandomConnexTrees compiles random S-connex queries and checks every
// shape: tops spanning exactly S, a top join tree, and a join tree of an
// inclusive extension with the atoms hung below.
func TestRandomConnexTrees(t *testing.T) {
	trials := 300
	if testing.Short() {
		trials = 60
	}
	rng := rand.New(rand.NewSource(4242))
	for trial := 0; trial < trials; trial++ {
		q, s := workload.RandomAcyclicCQ(rng)
		sh, err := Compile(q, s)
		if err != nil {
			t.Fatalf("trial %d: Compile(%s, %v): %v", trial, q, s, err)
		}
		checkConnexShape(t, sh, s)
		if t.Failed() {
			t.Fatalf("trial %d: %s with S=%v", trial, q, s)
		}
	}
}

// TestShapeConcurrentBind binds one shape to a different instance on each
// of several goroutines, extending every answer, and checks each plan
// against a sequential bind of the same instance. Under -race it pins the
// contract that Bind and Extend only read the shape.
func TestShapeConcurrentBind(t *testing.T) {
	q := cq.MustParseCQ("Q(x,z) <- R1(x,z), R2(z,y), R3(y,w).")
	sh, err := Compile(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	insts := make([]*database.Instance, workers)
	want := make([]int, workers)
	for i := range insts {
		insts[i] = workload.RandomInstanceForCQ(q, 30, 6, int64(i))
		p, err := sh.Bind(insts[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = p.MaterializeHead().Len()
	}
	var wg sync.WaitGroup
	for i := range insts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := sh.Bind(insts[i])
			if err != nil {
				t.Error(err)
				return
			}
			n := 0
			for it := p.Iterator(); it.Next(); n++ {
				it.Extend()
			}
			if n != want[i] {
				t.Errorf("worker %d: %d answers, want %d", i, n, want[i])
			}
		}(i)
	}
	wg.Wait()
}
