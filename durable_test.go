package ucq

import (
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
