package ucq

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/database"
	"repro/internal/wire"
)

// FuzzParse fuzzes the query parser: it must never panic, and any query it
// accepts must survive a render/reparse round trip — the normalization the
// server's plan-cache key depends on.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"Q(x,y) <- R(x,z), S(z,y).",
		"Q1(x,y,w) <- R1(x,z), R2(z,y), R3(y,w).\nQ2(x,y,w) :- R1(x,y), R2(y,w)",
		"Q() <- R(x)",
		"# comment\nQ(x) <- R(x). % more\n// and more\nQ(y) <- S(y)",
		"Q(x, x) <- R(x, x)",
		"Q(",
		"Q(x) <- ",
		"Q(x) <- R()",
		"Q(x) R(x)",
		"Q(x)<-R(x).Q(y)<-S(y).",
		strings.Repeat("Q(x) <- R(x).\n", 20),
		"Q'(x') <- R_1(x', _y)",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		u, err := Parse(src)
		if err != nil {
			return
		}
		if err := u.Validate(); err != nil {
			t.Fatalf("Parse accepted an invalid query: %v\n%q", err, src)
		}
		rendered := u.String()
		re, err := Parse(rendered)
		if err != nil {
			t.Fatalf("rendered query does not reparse: %v\n%q -> %q", err, src, rendered)
		}
		if re.String() != rendered {
			t.Fatalf("round trip is not a fixpoint:\n%q\n%q", rendered, re.String())
		}
	})
}

// FuzzReadRelationCSV fuzzes the CSV instance reader: no panics, and any
// relation it accepts must survive a write/reread round trip.
func FuzzReadRelationCSV(f *testing.F) {
	seeds := []string{
		"1,2\n4,2\n",
		"1 2\t3; 4\n# comment\n\n5,6,7,8\n",
		"-9223372036854775808,9223372036854775807\n",
		"1,notanumber\n",
		"1,2\n3\n",
		"# only comments\n",
		"",
		"0\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rel, err := ReadRelationCSV(bytes.NewReader(data), "R")
		if err != nil {
			return
		}
		if rel.Len() == 0 || rel.Arity() == 0 {
			t.Fatalf("accepted relation with %d rows, arity %d", rel.Len(), rel.Arity())
		}
		var buf bytes.Buffer
		if err := WriteRelationCSV(&buf, rel); err != nil {
			t.Fatalf("writing accepted relation: %v", err)
		}
		re, err := ReadRelationCSV(bytes.NewReader(buf.Bytes()), "R")
		if err != nil {
			t.Fatalf("rewritten relation does not reread: %v\n%q", err, buf.String())
		}
		if re.Len() != rel.Len() || re.Arity() != rel.Arity() {
			t.Fatalf("round trip changed shape: %dx%d -> %dx%d",
				rel.Len(), rel.Arity(), re.Len(), re.Arity())
		}
		want := rel.SortedRows()
		got := re.SortedRows()
		for i := range want {
			if !want[i].Equal(got[i]) {
				t.Fatalf("round trip changed row %d: %v -> %v", i, want[i], got[i])
			}
		}
	})
}

// FuzzReadInstanceJSON fuzzes the JSON instance reader behind ucq-run
// -dataset name=instance.json differentially: it must accept exactly the
// inputs encoding/json decodes into a map[string][][]int64 followed by
// only whitespace and referenceInstanceFromRows accepts, build the same
// instance, and fail on the same row check with the same message. The map
// path, InstanceFromRows, must agree with the reference as well.
func FuzzReadInstanceJSON(f *testing.F) {
	seeds := []string{
		`{"R": [[1,2],[3,4]], "S": [[2,5]]}`,
		`{"R": [[1,2],[1,2]]}`,
		` {"B": [[0]]} `,
		`{"R": [[-36028797018963968, 36028797018963967]]}`,
		`{"R": [[36028797018963968]]}`,
		`{"R": [[1,2],[3]]}`,
		`{"R": [[]]}`,
		`{"R": []}`,
		`{"": [[1]]}`,
		`{"R": [[1]]} {"S": [[2]]}`,
		`{"R": [[1]]}x`,
		`{"R": [[1.5]]}`,
		`[[1,2]]`,
		`{}`,
		``,
		// encoding/json's quirks: null leaves a zero, a repeated name keeps
		// its last rows, numbers are integers in int64 range only, invalid
		// UTF-8 in a name becomes U+FFFD.
		`null`,
		`{"R": null}`,
		`{"R": [[1, null], null]}`,
		`{"R": [[1]], "R": [[2, 3]]}`,
		`{"R": [[1], [2, 3]], "R": [[4]]}`,
		`{"R": [[1e2]]}`,
		`{"R": [[-0, 01]]}`,
		`{"R": [[9223372036854775808]]}`,
		`{"R": [[-9223372036854775808]]}`,
		"{\"R\xff\": [[1]]}",
		`{"\u0052": [[1]], "R": [[2]]}`,
		`{"R": [[1]], "S": [[1], [2, 3]], "T": [[36028797018963968]]}`,
		`{"R": [[1]]`,
		`{"R": [[1]],}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadInstanceJSON(bytes.NewReader(data))

		var rows map[string][][]int64
		dec := json.NewDecoder(bytes.NewReader(data))
		refErr := dec.Decode(&rows)
		if refErr == nil {
			if _, tokErr := dec.Token(); tokErr != io.EOF {
				refErr = errors.New("data after the instance object")
			}
		}
		if refErr != nil {
			if err == nil {
				t.Fatalf("accepted what encoding/json rejects (%v):\n%q", refErr, data)
			}
			return
		}
		want, wantErr := referenceInstanceFromRows(rows)
		checkSameBuild(t, "ReadInstanceJSON", data, got, err, want, wantErr)
		fromMap, mapErr := InstanceFromRows(rows)
		checkSameBuild(t, "InstanceFromRows", data, fromMap, mapErr, want, wantErr)
	})
}

// checkSameBuild fails unless an instance build agrees with the
// reference's: both fail with one message, or both succeed with equal
// instances.
func checkSameBuild(t *testing.T, what string, data []byte, got *Instance, err error, want *Instance, wantErr error) {
	t.Helper()
	switch {
	case (err == nil) != (wantErr == nil):
		t.Fatalf("%s: error %v, reference error %v:\n%q", what, err, wantErr, data)
	case err != nil && err.Error() != wantErr.Error():
		t.Fatalf("%s: error %q, reference error %q:\n%q", what, err, wantErr, data)
	case err == nil && !sameInstance(got, want):
		t.Fatalf("%s built %v, reference %v:\n%q", what, got, want, data)
	}
}

// sameInstance reports whether two instances hold the same relations with
// the same arities and the same rows in the same order.
func sameInstance(a, b *Instance) bool {
	if !reflect.DeepEqual(a.Names(), b.Names()) {
		return false
	}
	for _, name := range a.Names() {
		ra, rb := a.Relation(name), b.Relation(name)
		if ra.Arity() != rb.Arity() || ra.Len() != rb.Len() {
			return false
		}
		for i := 0; i < ra.Len(); i++ {
			if !ra.Row(i).Equal(rb.Row(i)) {
				return false
			}
		}
	}
	return true
}

// referenceInstanceFromRows is InstanceFromRows as it was before request
// bodies were decoded into value columns: the row-map reader the strict
// decoder must agree with, message for message.
func referenceInstanceFromRows(rels map[string][][]int64) (*Instance, error) {
	inst := database.NewInstance()
	names := make([]string, 0, len(rels))
	for name := range rels {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rows := rels[name]
		if name == "" {
			return nil, fmt.Errorf("ucq: relation with empty name")
		}
		if len(rows) == 0 {
			return nil, fmt.Errorf("ucq: relation %s has no rows; arity unknown", name)
		}
		if len(rows[0]) == 0 {
			return nil, fmt.Errorf("ucq: relation %s has an empty first row; arity unknown", name)
		}
		rel := database.NewRelation(name, len(rows[0]))
		if rel.Arity() > wire.MaxArity {
			return nil, fmt.Errorf("ucq: relation %s has arity %d, above the limit of %d", name, rel.Arity(), wire.MaxArity)
		}
		for i, row := range rows {
			if len(row) != rel.Arity() {
				return nil, fmt.Errorf("ucq: %s row %d: %d values, expected %d", name, i, len(row), rel.Arity())
			}
			rel.AppendInts(row...)
		}
		inst.AddRelation(rel)
	}
	return inst, nil
}
