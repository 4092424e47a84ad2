package ucq

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
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
// relation it accepts must survive a write/reread round trip (all parsed
// values are untagged, so WriteRelationCSV emits plain integers back).
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
// -dataset name=instance.json: no panics, and any instance it accepts must
// survive a round trip through its own row map — rendered back to rows,
// re-encoded and reread via InstanceFromRows — with every relation, arity
// and row unchanged.
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
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		inst, err := ReadInstanceJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		rows := instanceRows(t, inst)
		enc, err := json.Marshal(rows)
		if err != nil {
			t.Fatal(err)
		}
		re, err := ReadInstanceJSON(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("re-encoded instance does not reread: %v\n%s", err, enc)
		}
		if got := instanceRows(t, re); !reflect.DeepEqual(got, rows) {
			t.Fatalf("round trip changed the instance:\n%v\n->\n%v", rows, got)
		}
	})
}

// instanceRows renders an accepted instance back to the row map
// InstanceFromRows reads, checking that every relation has a known arity.
func instanceRows(t *testing.T, inst *Instance) map[string][][]int64 {
	rows := map[string][][]int64{}
	for _, name := range inst.Names() {
		rel := inst.Relation(name)
		if rel.Len() == 0 || rel.Arity() == 0 {
			t.Fatalf("accepted relation %s with %d rows, arity %d", name, rel.Len(), rel.Arity())
		}
		for _, tup := range rel.Rows() {
			row := make([]int64, len(tup))
			for i, v := range tup {
				row[i] = v.Payload()
			}
			rows[name] = append(rows[name], row)
		}
	}
	return rows
}
