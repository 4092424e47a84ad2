package yannakakis

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/cq"
	"repro/internal/database"
	"repro/internal/workload"
)

// walkDown drains a fresh iterator of p and, at every answer and every DFS
// position below the root, checks that the group of rows the iterator
// reached through the parent row's edge pointer is exactly what a hash
// lookup of the ancestor key finds in an index over that position's rows.
// It also checks that the walk never backtracks and that CountAnswers
// agrees with it, and returns the number of answers.
func walkDown(t *testing.T, name string, p *Plan) int64 {
	t.Helper()
	sh := p.shape
	index := make([]*database.Index, len(p.pos))
	for k := 1; k < len(p.pos); k++ {
		ps := &p.pos[k]
		index[k] = database.RelationOf("", len(ps.varIDs), ps.rows, ps.vals).BuildIndex(sh.tops[sh.order[k]].cols)
	}
	it := p.Iterator()
	n := int64(0)
	var key []database.Value
	for it.Next() {
		n++
		for k := 1; k < len(it.pos); k++ {
			top, ps := &sh.tops[sh.order[k]], &it.pos[k]
			key = key[:0]
			for _, c := range top.cols {
				key = append(key, it.assign[top.varIDs[c]])
			}
			e := ps.down[it.cursors[ps.parent]]
			var group []int32
			for r := ps.offs[e]; r < ps.offs[e+1]; r++ {
				group = append(group, r)
			}
			if want := index[k].Lookup(key); !slices.Equal(group, want) || it.ends[k] != int(ps.offs[e+1]) ||
				it.cursors[k] < int(ps.offs[e]) || it.cursors[k] >= it.ends[k] {
				t.Fatalf("%s: answer %d, position %d: edge pointer reaches rows %v (cursor %d, end %d), lookup of %v finds %v",
					name, n, k, group, it.cursors[k], it.ends[k], key, want)
			}
		}
	}
	if it.Backtracks != 0 {
		t.Errorf("%s: %d backtracks after full reduction", name, it.Backtracks)
	}
	if c := p.CountAnswers(); c != n {
		t.Errorf("%s: CountAnswers = %d, drained %d", name, c, n)
	}
	return n
}

// TestDownPointersMatchLookup checks the edge pointers and row groups bind
// records against the hash lookups they replace, on every shape of edge: multi-edge trees
// from random unions and the paper's examples, a cross product (an edge
// sharing no column), an atom projected down to no columns, an R(x,x)
// atom, a Boolean query, and a plan drained after its instance grew.
func TestDownPointersMatchLookup(t *testing.T) {
	bind := func(name string, q *cq.CQ, inst *database.Instance, s cq.VarSet) *Plan {
		t.Helper()
		p, err := prepare(q, inst, s)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return p
	}

	// Members of random unions: with S = free(Q) where that is connex,
	// and with S = all variables, which is connex for every acyclic body.
	rng := rand.New(rand.NewSource(49))
	walked := 0
	for trial := 0; trial < 40; trial++ {
		u := workload.RandomUCQ(rng)
		inst := workload.RandomForQuery(u, 30, 5, rng.Int63())
		for _, q := range u.CQs {
			for _, s := range []cq.VarSet{nil, q.Vars()} {
				if _, err := Compile(q, s); err != nil {
					continue
				}
				if walkDown(t, q.String(), bind(q.String(), q, inst, s)) > 0 {
					walked++
				}
			}
		}
	}
	if walked < 40 {
		t.Errorf("only %d random member plans had answers; generator regressed", walked)
	}

	// The paper's Example 2 and Example 13 over their chain instances. A
	// member that is not free-connex on its own is walked with S = all of
	// its variables.
	for _, tc := range []struct {
		name  string
		query string
		inst  *database.Instance
	}{
		{"example 2", `
			Q1(x,y,w) <- R1(x,z), R2(z,y), R3(y,w).
			Q2(x,y,w) <- R1(x,y), R2(y,w).`, workload.Example2Instance(300, 3, 1)},
		{"example 13", `
			Q1(x,y,v,u) <- R1(x,z1), R2(z1,z2), R3(z2,z3), R4(z3,y), R5(y,v,u).
			Q2(x,y,v,u) <- R1(x,y), R2(y,v), R3(v,z1), R4(z1,u), R5(u,t1,t2).
			Q3(x,y,v,u) <- R1(x,z1), R2(z1,y), R3(y,v), R4(v,u), R5(u,t1,t2).`, workload.Example13Instance(60, 2, 1)},
	} {
		for _, q := range cq.MustParse(tc.query).CQs {
			var s cq.VarSet
			if _, err := Compile(q, nil); err != nil {
				s = q.Vars()
			}
			name := tc.name + " " + q.Name
			if walkDown(t, name, bind(name, q, tc.inst, s)) == 0 {
				t.Errorf("%s: no answers", name)
			}
		}
	}

	// Edge cases, each with its answer count.
	for _, tc := range []struct {
		name  string
		query string
		rels  map[string][][]int64
		want  int64
	}{
		{"cross product", "Q(x,y) <- R(x), S(y).",
			map[string][][]int64{"R": {{1}, {2}}, "S": {{10}, {20}, {30}}}, 6},
		{"atom projected to no columns", "Q(x,y) <- R(x,y), S(z,w).",
			map[string][][]int64{"R": {{1, 2}, {3, 4}}, "S": {{5, 6}, {7, 8}}}, 2},
		{"R(x,x) top", "Q(x,y,z) <- R(x,x,y), S(y,z).",
			map[string][][]int64{"R": {{1, 1, 2}, {1, 3, 2}, {4, 4, 5}}, "S": {{2, 7}, {2, 8}, {5, 9}, {6, 0}}}, 3},
		{"Boolean", "Q() <- R(x,y), S(y,z).",
			map[string][][]int64{"R": {{1, 2}}, "S": {{2, 3}, {2, 4}}}, 1},
	} {
		p := bind(tc.name, cq.MustParseCQ(tc.query), makeInstance(tc.rels), nil)
		if got := walkDown(t, tc.name, p); got != tc.want {
			t.Errorf("%s: %d answers, want %d", tc.name, got, tc.want)
		}
	}

	// A plan is a snapshot: pointers recorded at bind stay valid while 40
	// appends grow the instance's relations in place past the bound rows.
	q := cq.MustParseCQ("Q(x,y,w) <- R1(x,y), R2(y,w), R3(w,v).")
	inst := workload.Chain([]string{"R1", "R2", "R3"}, []int{2, 2, 2}, 50, 2, 3)
	p := bind("before appends", q, inst, nil)
	before := p.CountAnswers()
	for i := int64(0); i < 40; i++ {
		delta := makeInstance(map[string][][]int64{
			"R1": {{1000 + i, i % 50}}, "R2": {{i % 50, 2000 + i}}, "R3": {{2000 + i, i}},
		})
		grown, err := inst.Extend(delta)
		if err != nil {
			t.Fatal(err)
		}
		inst = grown
	}
	if got := walkDown(t, "after appends", p); got != before {
		t.Errorf("plan bound before 40 appends drains %d answers after them, counted %d at bind", got, before)
	}
	if walkDown(t, "rebound", bind("rebound", q, inst, nil)) <= before {
		t.Errorf("a bind after 40 appends sees no new answers")
	}
}

// TestConcurrentIteratorsOnePlan drains one bound plan from 8 goroutines
// at once, counting it too: the edge pointers and indexes are shared by
// every iterator of a plan and must be read-only after Bind (run with
// -race).
func TestConcurrentIteratorsOnePlan(t *testing.T) {
	q := cq.MustParseCQ("Q(x,y,v,u) <- R1(x,y), R2(y,v), R3(v,z1), R4(z1,u), R5(u,t1,t2).")
	p, err := prepare(q, workload.Example13Instance(80, 2, 5), q.Vars())
	if err != nil {
		t.Fatal(err)
	}
	// sum folds every answer's hash, so two drains agree on it only when
	// they produce the same answers.
	drain := func() (n int, sum uint64) {
		var buf database.Tuple
		for it := p.Iterator(); it.Next(); n++ {
			buf = it.AppendHead(buf[:0])
			sum += buf.Hash()
		}
		return n, sum
	}
	wantN, wantSum := drain()
	if wantN == 0 {
		t.Fatal("no answers")
	}
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if n, sum := drain(); n != wantN || sum != wantSum {
				t.Errorf("worker %d: %d answers (hash sum %x), want %d (%x)", w, n, sum, wantN, wantSum)
			}
			if c := p.CountAnswers(); c != int64(wantN) {
				t.Errorf("worker %d: CountAnswers = %d, want %d", w, c, wantN)
			}
		}(w)
	}
	wg.Wait()
}
