package ucq

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/wire"
)

// TestOpenCatalogRecoversDatasets drives the durable catalog through its
// lifecycle — register, append, replace, drop — reopening between steps and
// checking each dataset comes back at its exact version with the exact
// answer set a pre-restart query saw.
func TestOpenCatalogRecoversDatasets(t *testing.T) {
	dir := t.TempDir()
	u := MustParse(`Q(x,y) <- R(x,y).`)
	pq, err := Prepare(u, nil)
	if err != nil {
		t.Fatal(err)
	}
	answers := func(ds *Dataset) []string {
		p, err := pq.BindDataset(ds)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for tup := range p.All(nil) {
			out = append(out, tup.String())
		}
		sort.Strings(out)
		return out
	}

	cat, st, err := OpenCatalog(dir)
	if err != nil {
		t.Fatal(err)
	}
	inst := NewInstance()
	r := NewRelation("R", 2)
	r.AppendInts(1, 2)
	inst.AddRelation(r)
	ds, err := cat.Register("edges", inst)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ds.AppendRows(map[string][][]int64{"R": {{3, 4}, {5, 6}}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cat.Upsert("other", NewInstance()); err != nil {
		t.Fatal(err)
	}
	want := answers(ds)
	wantVersion := ds.Version()
	st.Close()

	// "Restart": a fresh catalog over the same directory.
	cat2, st2, err := OpenCatalog(dir)
	if err != nil {
		t.Fatal(err)
	}
	ds2, ok := cat2.Dataset("edges")
	if !ok {
		t.Fatal("edges not recovered")
	}
	if ds2.Version() != wantVersion {
		t.Fatalf("recovered at version %d, want %d", ds2.Version(), wantVersion)
	}
	if _, ok := cat2.Dataset("other"); !ok {
		t.Fatal("other not recovered")
	}
	got := answers(ds2)
	if len(got) != len(want) {
		t.Fatalf("recovered answers %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("recovered answers %v, want %v", got, want)
		}
	}

	// The recovered catalog keeps journaling: replace + drop survive the
	// next reopen.
	repl := NewInstance()
	rr := NewRelation("R", 2)
	rr.AppendInts(7, 8)
	repl.AddRelation(rr)
	v, err := ds2.Replace(repl)
	if err != nil {
		t.Fatal(err)
	}
	if !cat2.Drop("other") {
		t.Fatal("drop failed")
	}
	st2.Close()

	cat3, st3, err := OpenCatalog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	ds3, ok := cat3.Dataset("edges")
	if !ok {
		t.Fatal("edges lost after replace")
	}
	if ds3.Version() != v {
		t.Fatalf("recovered at version %d, want %d", ds3.Version(), v)
	}
	if got := answers(ds3); len(got) != 1 || got[0] != "(7,8)" {
		t.Fatalf("replaced dataset recovered %v, want [(7,8)]", got)
	}
	if _, ok := cat3.Dataset("other"); ok {
		t.Fatal("dropped dataset resurrected")
	}
	if st3.Stats().Recovered != 1 {
		t.Fatalf("Recovered = %d, want 1", st3.Stats().Recovered)
	}
}

// reopen closes a durable catalog's store and opens the directory again.
func reopen(t *testing.T, dir string, st interface{ Close() error }) *Catalog {
	t.Helper()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	cat, st2, err := OpenCatalog(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st2.Close() })
	return cat
}

// TestOpenCatalogRecoversNullaryAppend checks an append to a nullary
// relation, and every append after it, survive a restart.
func TestOpenCatalogRecoversNullaryAppend(t *testing.T) {
	dir := t.TempDir()
	cat, st, err := OpenCatalog(dir)
	if err != nil {
		t.Fatal(err)
	}
	inst := NewInstance()
	inst.AddRelation(NewRelation("N", 0))
	inst.AddRelation(NewRelation("R", 2))
	ds, err := cat.Register("d", inst)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ds.AppendRows(map[string][][]int64{"N": {{}}}); err != nil {
		t.Fatal(err)
	}
	if v, err := ds.AppendRows(map[string][][]int64{"R": {{1, 2}}}); err != nil || v != 3 {
		t.Fatalf("AppendRows = v%d, %v; want v3", v, err)
	}
	ds, ok := reopen(t, dir, st).Dataset("d")
	if !ok || ds.Version() != 3 {
		t.Fatalf("recovered %v at v%d, want v3", ok, ds.Version())
	}
	got := ds.Info()
	if got.Rows != 2 {
		t.Fatalf("recovered %d rows, want the nullary row and (1,2)", got.Rows)
	}
}

// TestOpenCatalogRecoversLongRelationName checks a relation whose name
// outgrows any 16-bit length field survives a restart.
func TestOpenCatalogRecoversLongRelationName(t *testing.T) {
	dir := t.TempDir()
	cat, st, err := OpenCatalog(dir)
	if err != nil {
		t.Fatal(err)
	}
	name := strings.Repeat("n", 70_000)
	inst := NewInstance()
	r := NewRelation(name, 1)
	r.AppendInts(7)
	inst.AddRelation(r)
	if _, err := cat.Register("d", inst); err != nil {
		t.Fatal(err)
	}
	ds, ok := reopen(t, dir, st).Dataset("d")
	if !ok {
		t.Fatal("dataset lost on restart")
	}
	got := ds.Instance().Relation(name)
	if got == nil || got.Len() != 1 || got.Row(0)[0] != V(7) {
		t.Fatalf("recovered relation %v, want one row (7)", got)
	}
}

// TestCatalogRejectsWideRelations checks one arity bound, wire.MaxArity,
// holds for every catalog write, in memory and durable alike, and that a
// rejected write is never journaled.
func TestCatalogRejectsWideRelations(t *testing.T) {
	dir := t.TempDir()
	durable, st, err := OpenCatalog(dir)
	if err != nil {
		t.Fatal(err)
	}
	wide := NewInstance()
	wide.AddRelation(NewRelation("W", wire.MaxArity+1))
	row := make([]int64, wire.MaxArity+1)
	for _, cat := range []*Catalog{NewCatalog(), durable} {
		if _, err := cat.Register("w", wide); err == nil {
			t.Fatal("Register accepted a relation wider than MaxArity")
		}
		if _, _, err := cat.Upsert("w", wide); err == nil {
			t.Fatal("Upsert accepted a relation wider than MaxArity")
		}
		if _, err := InstanceFromRows(map[string][][]int64{"W": {row}}); err == nil {
			t.Fatal("InstanceFromRows accepted a row wider than MaxArity")
		}
		ds, err := cat.Register("d", NewInstance())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ds.Replace(wide); err == nil {
			t.Fatal("Replace accepted a relation wider than MaxArity")
		}
		if _, err := ds.AppendRows(map[string][][]int64{"W": {row}}); err == nil {
			t.Fatal("AppendRows accepted a row wider than MaxArity")
		}
		if ds.Version() != 1 {
			t.Fatalf("rejected writes moved the dataset to v%d", ds.Version())
		}
		if list := cat.List(); len(list) != 1 || list[0].Name != "d" {
			t.Fatalf("datasets after rejected writes: %+v", list)
		}
	}
	if ds, ok := reopen(t, dir, st).Dataset("d"); !ok || ds.Version() != 1 || ds.Info().Relations != 0 {
		t.Fatalf("recovered %v; want d at v1 with no relations", ds)
	}
}

// TestReplaceAfterDropFails checks a Replace through a handle whose
// registration was dropped fails with ErrDatasetDropped, changes nothing
// and is never journaled: the dataset stays gone after a restart. An
// in-memory catalog follows the same rule.
func TestReplaceAfterDropFails(t *testing.T) {
	dir := t.TempDir()
	durable, st, err := OpenCatalog(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, cat := range []*Catalog{NewCatalog(), durable} {
		ds, err := cat.Register("x", NewInstance())
		if err != nil {
			t.Fatal(err)
		}
		if !cat.Drop("x") {
			t.Fatal("drop failed")
		}
		if v, err := ds.Replace(NewInstance()); !errors.Is(err, ErrDatasetDropped) {
			t.Fatalf("Replace after Drop = v%d, %v; want ErrDatasetDropped", v, err)
		}
		if ds.Version() != 1 {
			t.Fatalf("a failed Replace moved the dropped dataset to v%d", ds.Version())
		}
		if _, ok := cat.Dataset("x"); ok {
			t.Fatal("Replace after Drop brought x back")
		}
	}
	if _, ok := reopen(t, dir, st).Dataset("x"); ok {
		t.Fatal("Replace after Drop was journaled: x is back after reopen")
	}
}

// TestStaleAppendAfterReregisterFails checks an AppendRows through the
// handle of a dropped registration fails even after the name is registered
// again, and never reaches the new registration's journal: the new
// registration's acknowledged append survives a restart, with no torn
// tail. An in-memory catalog follows the same rule.
func TestStaleAppendAfterReregisterFails(t *testing.T) {
	dir := t.TempDir()
	durable, st, err := OpenCatalog(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, cat := range []*Catalog{NewCatalog(), durable} {
		stale, err := cat.Register("x", NewInstance())
		if err != nil {
			t.Fatal(err)
		}
		for i := range 3 {
			if _, err := stale.AppendRows(map[string][][]int64{"R": {{int64(i), 0}}}); err != nil {
				t.Fatal(err)
			}
		}
		cat.Drop("x")
		fresh, err := cat.Register("x", NewInstance())
		if err != nil {
			t.Fatal(err)
		}
		if v, err := stale.AppendRows(map[string][][]int64{"R": {{9, 9}}}); !errors.Is(err, ErrDatasetDropped) {
			t.Fatalf("stale AppendRows = v%d, %v; want ErrDatasetDropped", v, err)
		}
		if v, err := fresh.AppendRows(map[string][][]int64{"R": {{1, 1}}}); err != nil || v != 2 {
			t.Fatalf("fresh AppendRows = v%d, %v; want v2", v, err)
		}
		if stale.Version() != 4 || fresh.Info().Rows != 1 {
			t.Fatalf("stale at v%d, fresh holds %d rows; want v4 and 1 row", stale.Version(), fresh.Info().Rows)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	cat, st2, err := OpenCatalog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	ds, ok := cat.Dataset("x")
	if !ok {
		t.Fatal("x lost on reopen")
	}
	if info := ds.Info(); info.Version != 2 || info.Rows != 1 {
		t.Fatalf("recovered x: %+v; want v2 with the fresh row", info)
	}
	if torn := st2.Stats().TornTails; torn != 0 {
		t.Fatalf("TornTails = %d, want 0", torn)
	}
}

// modelRelation is one relation of the recovery model.
type modelRelation struct {
	arity int
	rows  [][]int64
}

// modelDataset is what a dataset must hold after the acknowledged writes
// alone: its version, its relations, and the append log a catalog keeps —
// the appended rows per relation at versions base+1 … version.
type modelDataset struct {
	reg     int // which registration of the name this is
	version uint64
	rels    map[string]*modelRelation
	base    uint64
	appends []map[string][][]int64
}

// instance builds a fresh Instance holding the model's relations.
func (m *modelDataset) instance() *Instance {
	inst := NewInstance()
	for name, mr := range m.rels {
		rel := NewRelation(name, mr.arity)
		for _, row := range mr.rows {
			rel.AppendInts(row...)
		}
		inst.AddRelation(rel)
	}
	return inst
}

// modelArity fixes each relation name's arity: R binary, S unary (absent
// from some snapshots, so an append creates it), N nullary.
var modelArity = map[string]int{"R": 2, "S": 1, "N": 0}

func modelRows(rng *rand.Rand, arity, n int) [][]int64 {
	rows := make([][]int64, n)
	for i := range rows {
		rows[i] = make([]int64, arity)
		for c := range rows[i] {
			rows[i][c] = rng.Int63n(5)
		}
	}
	return rows
}

// randomModelSnapshot draws the relations of a registration or a replace.
func randomModelSnapshot(rng *rand.Rand) map[string]*modelRelation {
	rels := map[string]*modelRelation{"R": {arity: 2, rows: modelRows(rng, 2, rng.Intn(4))}}
	if rng.Intn(2) == 0 {
		rels["S"] = &modelRelation{arity: 1, rows: modelRows(rng, 1, 1+rng.Intn(2))}
	}
	if rng.Intn(2) == 0 {
		rels["N"] = &modelRelation{rows: modelRows(rng, 0, rng.Intn(2))}
	}
	return rels
}

func sortedModelRows(rows [][]int64) [][]int64 {
	out := append([][]int64(nil), rows...)
	sort.Slice(out, func(i, j int) bool { return slices.Compare(out[i], out[j]) < 0 })
	return out
}

func relationRows(rel *Relation) [][]int64 {
	out := make([][]int64, rel.Len())
	for i := range out {
		out[i] = []int64{}
		for _, v := range rel.Row(i) {
			out[i] = append(out[i], int64(v))
		}
	}
	return out
}

// checkModel asserts the catalog holds exactly the model's datasets, each
// at the model's version with the model's rows, and that DeltasBetween
// returns the model's appended rows, in append order, for every window the
// log retains and refuses the window reaching one version further back.
func checkModel(t *testing.T, cat *Catalog, model map[string]*modelDataset, when string) {
	t.Helper()
	if got := len(cat.List()); got != len(model) {
		t.Fatalf("%s: catalog lists %d datasets, model %d", when, got, len(model))
	}
	for name, m := range model {
		ds, ok := cat.Dataset(name)
		if !ok || ds.Version() != m.version {
			t.Fatalf("%s: dataset %s present %v at v%d, model v%d", when, name, ok, ds.Version(), m.version)
		}
		inst := ds.Instance()
		if len(inst.Names()) != len(m.rels) {
			t.Fatalf("%s: %s holds relations %v, model %d", when, name, inst.Names(), len(m.rels))
		}
		for rname, mr := range m.rels {
			rel := inst.Relation(rname)
			if rel == nil || rel.Arity() != mr.arity ||
				!slices.EqualFunc(sortedModelRows(relationRows(rel)), sortedModelRows(mr.rows), slices.Equal) {
				t.Fatalf("%s: %s.%s = %v, model %v", when, name, rname, rel, mr.rows)
			}
		}
		for from := m.base; from <= m.version; from++ {
			for to := from; to <= m.version; to++ {
				_, _, deltas, ok := ds.DeltasBetween(from, to)
				if !ok {
					t.Fatalf("%s: %s window (%d,%d] not retained; log from v%d", when, name, from, to, m.base)
				}
				want := map[string][][]int64{}
				for _, app := range m.appends[from-m.base : to-m.base] {
					for rname, rows := range app {
						want[rname] = append(want[rname], rows...)
					}
				}
				if len(deltas) != len(want) {
					t.Fatalf("%s: %s window (%d,%d] deltas %v, model %v", when, name, from, to, deltas, want)
				}
				for rname, rows := range want {
					if d := deltas[rname]; d == nil || !slices.EqualFunc(relationRows(d), rows, slices.Equal) {
						t.Fatalf("%s: %s window (%d,%d] delta %s = %v, model %v", when, name, from, to, rname, d, rows)
					}
				}
			}
		}
		if m.base > 0 {
			if _, _, _, ok := ds.DeltasBetween(m.base-1, m.version); ok {
				t.Fatalf("%s: %s window from v%d retained past the log base v%d", when, name, m.base-1, m.base)
			}
		}
	}
}

// TestCatalogRecoveryModel runs seeded sessions of random writes —
// Register, Upsert (create and replace), Replace, AppendRows and Drop,
// through live and stale handles — against a durable catalog, reopening it
// between sessions. After every session, and after every reopen, the
// catalog must equal a model that applies the acknowledged writes only.
func TestCatalogRecoveryModel(t *testing.T) {
	type handle struct {
		ds   *Dataset
		name string
		reg  int
	}
	names := []string{"a", "b", "c"}
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		cat, st, err := OpenCatalog(dir)
		if err != nil {
			t.Fatal(err)
		}
		model := map[string]*modelDataset{}
		regs := 0
		for session := range 6 {
			var handles []handle
			for name := range model {
				ds, _ := cat.Dataset(name)
				handles = append(handles, handle{ds, name, model[name].reg})
			}
			// Every third session is mostly appends and runs long enough to
			// compact an append log.
			appendHeavy := session%3 == 2
			for op := range 30 + 100*(session%3/2) {
				when := fmt.Sprintf("seed %d session %d op %d", seed, session, op)
				name := names[rng.Intn(len(names))]
				m := model[name]
				// A write through a handle targets that handle's registration,
				// which may have been dropped since: half the time the name's
				// live one, otherwise any handle of the session.
				var h handle
				if ds, ok := cat.Dataset(name); ok && rng.Intn(2) == 0 {
					h = handle{ds, name, m.reg}
				} else if len(handles) > 0 {
					h = handles[rng.Intn(len(handles))]
				}
				live := h.ds != nil && model[h.name] != nil && model[h.name].reg == h.reg
				k := rng.Intn(10)
				if appendHeavy && rng.Intn(10) > 0 {
					k = 5
				}
				switch {
				case k < 2: // Register
					rels := randomModelSnapshot(rng)
					nm := &modelDataset{reg: regs + 1, version: 1, rels: rels, base: 1}
					ds, err := cat.Register(name, nm.instance())
					if (err == nil) != (m == nil) {
						t.Fatalf("%s: Register(%s) = %v with model %v", when, name, err, m)
					}
					if err == nil {
						regs++
						model[name] = nm
						handles = append(handles, handle{ds, name, nm.reg})
					}
				case k < 4: // Upsert: create or replace
					rels := randomModelSnapshot(rng)
					nm := &modelDataset{reg: regs + 1, version: 1, rels: rels, base: 1}
					if m != nil {
						nm.reg, nm.version, nm.base = m.reg, m.version+1, m.version+1
					}
					ds, created, err := cat.Upsert(name, nm.instance())
					if err != nil || created != (m == nil) || ds.Version() != nm.version {
						t.Fatalf("%s: Upsert(%s) = created %v, %v; model %v", when, name, created, err, m)
					}
					if created {
						regs++
						handles = append(handles, handle{ds, name, nm.reg})
					}
					model[name] = nm
				case k < 5: // Replace through a handle
					if h.ds == nil {
						continue
					}
					rels := randomModelSnapshot(rng)
					nm := &modelDataset{reg: h.reg, rels: rels}
					v, err := h.ds.Replace(nm.instance())
					if !live {
						if !errors.Is(err, ErrDatasetDropped) {
							t.Fatalf("%s: stale Replace = v%d, %v", when, v, err)
						}
						continue
					}
					old := model[h.name]
					nm.version, nm.base = old.version+1, old.version+1
					if err != nil || v != nm.version {
						t.Fatalf("%s: Replace = v%d, %v; model v%d", when, v, err, nm.version)
					}
					model[h.name] = nm
				case k < 8: // AppendRows through a handle
					if h.ds == nil {
						continue
					}
					app := map[string][][]int64{}
					for rname, arity := range modelArity {
						if rng.Intn(2) == 0 {
							continue
						}
						// An append cannot create a nullary relation: its
						// empty first row carries no arity.
						if rname == "N" && h.ds.Instance().Relation("N") == nil {
							continue
						}
						app[rname] = modelRows(rng, arity, 1+rng.Intn(3))
					}
					if !live {
						app["R"] = modelRows(rng, 2, 1)
					}
					v, err := h.ds.AppendRows(app)
					if !live {
						if !errors.Is(err, ErrDatasetDropped) {
							t.Fatalf("%s: stale AppendRows = v%d, %v", when, v, err)
						}
						continue
					}
					m := model[h.name]
					if err != nil || v != m.version+1 {
						t.Fatalf("%s: AppendRows = v%d, %v; model v%d", when, v, err, m.version+1)
					}
					m.version++
					for rname, rows := range app {
						mr := m.rels[rname]
						if mr == nil {
							mr = &modelRelation{arity: modelArity[rname]}
							m.rels[rname] = mr
						}
						mr.rows = append(mr.rows, rows...)
					}
					m.appends = append(m.appends, app)
					if len(m.appends) > appendLogSize {
						m.appends = m.appends[1:]
						m.base++
					}
				default: // Drop
					if cat.Drop(name) != (m != nil) {
						t.Fatalf("%s: Drop(%s) disagrees with model %v", when, name, m)
					}
					delete(model, name)
				}
			}
			checkModel(t, cat, model, fmt.Sprintf("seed %d session %d", seed, session))
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			if cat, st, err = OpenCatalog(dir); err != nil {
				t.Fatal(err)
			}
			if torn := st.Stats().TornTails; torn != 0 {
				t.Fatalf("seed %d session %d: %d torn WAL tails on reopen", seed, session, torn)
			}
			checkModel(t, cat, model, fmt.Sprintf("seed %d reopen after session %d", seed, session))
		}
		st.Close()
	}
}
