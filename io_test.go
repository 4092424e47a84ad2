package ucq

import (
	"strings"
	"testing"
)

func TestInstanceFromRows(t *testing.T) {
	inst, err := InstanceFromRows(map[string][][]int64{
		"R": {{1, 2}, {3, 4}},
		"S": {{2, 5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := inst.Relation("R")
	if r == nil || r.Arity() != 2 || r.Len() != 2 {
		t.Fatalf("R = %v", r)
	}
	if s := inst.Relation("S"); s == nil || s.Len() != 1 {
		t.Fatalf("S = %v", s)
	}
}

func TestInstanceFromRowsErrors(t *testing.T) {
	cases := []struct {
		name string
		rels map[string][][]int64
		want string
	}{
		{"ragged", map[string][][]int64{"R": {{1, 2}, {3}}}, "expected 2"},
		{"payload overflow", map[string][][]int64{"R": {{1 << 60}}}, "payload range"},
		{"empty relation", map[string][][]int64{"R": {}}, "no rows"},
		{"empty first row", map[string][][]int64{"R": {{}}}, "arity unknown"},
		{"empty name", map[string][][]int64{"": {{1}}}, "empty name"},
	}
	for _, tc := range cases {
		_, err := InstanceFromRows(tc.rels)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
}

func TestReadInstanceJSON(t *testing.T) {
	inst, err := ReadInstanceJSON(strings.NewReader(`{"R": [[1,2],[3,4]], "S": [[2,5]]}`))
	if err != nil {
		t.Fatal(err)
	}
	if inst.Relation("R").Len() != 2 || inst.Relation("S").Len() != 1 {
		t.Fatalf("unexpected instance: %v", inst.Names())
	}
	if _, err := ReadInstanceJSON(strings.NewReader(`{"R": [[1,2`)); err == nil {
		t.Error("truncated JSON should error")
	}
	if _, err := ReadInstanceJSON(strings.NewReader(`{"R": "nope"}`)); err == nil {
		t.Error("non-array rows should error")
	}
	if _, err := ReadInstanceJSON(strings.NewReader("{\"R\": [[1,2]]} \n")); err != nil {
		t.Errorf("trailing whitespace should be accepted: %v", err)
	}
	for _, trailing := range []string{`{"S": [[3,4]]}`, `{"S": [[3,4]]`, `x`} {
		src := `{"R": [[1,2]]}` + trailing
		if _, err := ReadInstanceJSON(strings.NewReader(src)); err == nil || !strings.Contains(err.Error(), "after the instance") {
			t.Errorf("%s: err = %v, want trailing data rejected", src, err)
		}
	}
}

func TestAppendTupleJSON(t *testing.T) {
	tup := Tuple{V(1), V(-7), TaggedValue(3, 2)}
	got := string(AppendTupleJSON(nil, tup))
	if got != `[1,-7,"3#2"]` {
		t.Errorf("AppendTupleJSON = %s", got)
	}
	if got := string(AppendTupleJSON(nil, Tuple{})); got != "[]" {
		t.Errorf("empty tuple = %s", got)
	}
	// Appending must extend, not overwrite.
	buf := []byte("x")
	if got := string(AppendTupleJSON(buf, Tuple{V(5)})); got != "x[5]" {
		t.Errorf("append = %s", got)
	}
}
