package ucq

import (
	"sort"
	"testing"
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
