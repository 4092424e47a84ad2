package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"testing"

	ucq "repro"
	"repro/internal/database"
	"repro/internal/wire"
)

// FuzzRequestBody checks the strict body decoder differentially against
// the reflection decoder it replaced (referenceDecode): for the
// QueryRequest, DatasetRequest and SubscribeRequest bodies it must accept
// and reject the same bytes, tell trailing data from a bad value alike,
// and decode the same fields. An accepted body's relations must build the
// instance ucq.InstanceFromRows builds from the row map, and the append
// delta referenceAppendDelta builds, failing with the same message when
// those do.
func FuzzRequestBody(f *testing.F) {
	for _, tc := range badRequests {
		f.Add([]byte(tc.body))
	}
	for _, s := range []string{
		`{"query": "Q(x) <- R(x).", "relations": {"R": [[1], [2]]}, "options": {"mode": "naive", "count_only": true}, "limit": 3}`,
		`{"relations": {"R": [[1, 2]]}, "append": true}`,
		`{"query": "Q(x) <- R(x).", "options": {"mode": "auto"}, "from_version": 18446744073709551615}`,
		// encoding/json's quirks.
		`{"QUERY": "Q(x) <- R(x).", "Relations": {"R": [[1]]}, "LiMiT": 1}`,
		`{"lımıt": 1, "relationſ": {"R": [[1]]}, "from_verſion": 2, "Kount_only": true}`,
		`{"relations": {"R": [[1]]}, "relations": {"S": [[2]]}}`,
		`{"relations": {"R": [[1]]}, "relations": null, "relations": {"S": [[2]]}}`,
		`{"relations": {"R": [[1]], "R": [[2, 3]]}, "append": true}`,
		`{"options": {"mode": "naive"}, "options": {"count_only": true}, "options": null}`,
		`{"query": null, "limit": null, "options": {"mode": null}, "append": null}`,
		`{"relations": {"R": [[1, null], null]}, "append": true}`,
		`{"limit": 1e2}`, `{"limit": 1.0}`, `{"limit": -0}`, `{"from_version": -0}`,
		`{"limit": 9223372036854775808}`, `{"from_version": 18446744073709551616}`,
		"{\"query\": \"Q(x) <- R\xff(x).\"}",
		`{"query": "Q(x) \u003c- R(x).", "\u0071uery": "Q(y) <- R(y)."}`,
		`{"relations": {"R": [[]]}, "append": true}`,
		`{"relations": {"R": [[1]]}, "options": {"mode": "naive"}}`,
		`null`, `nullx`, `[]`, `5x`, ` `,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var ref QueryRequest
		refErr := referenceDecode(data, &ref)
		var (
			req  QueryRequest
			rels wire.Relations
		)
		err := decode(data, func(d *wire.Body) { decodeQueryRequest(d, &req, &rels) })
		if sameOutcome(t, "QueryRequest", data, err, refErr) {
			refRels := ref.Relations
			ref.Relations = nil
			if fmt.Sprint(req) != fmt.Sprint(ref) {
				t.Fatalf("QueryRequest: decoded %+v, reference %+v:\n%q", req, ref, data)
			}
			checkRelations(t, data, &rels, refRels, false)
		}

		for _, appending := range []bool{false, true} {
			var ref DatasetRequest
			refErr := referenceDecode(data, &ref)
			var (
				req  DatasetRequest
				rels wire.Relations
			)
			err := decode(data, func(d *wire.Body) { decodeDatasetRequest(d, &req, &rels) })
			if sameOutcome(t, "DatasetRequest", data, err, refErr) {
				if req.Append != ref.Append {
					t.Fatalf("DatasetRequest: append %v, reference %v:\n%q", req.Append, ref.Append, data)
				}
				checkRelations(t, data, &rels, ref.Relations, appending)
			}
		}

		var refSub SubscribeRequest
		refErr = referenceDecode(data, &refSub)
		var sub SubscribeRequest
		err = decode(data, func(d *wire.Body) { decodeSubscribeRequest(d, &sub) })
		if sameOutcome(t, "SubscribeRequest", data, err, refErr) && sub != refSub {
			t.Fatalf("SubscribeRequest: decoded %+v, reference %+v:\n%q", sub, refSub, data)
		}
	})
}

// errTrailing stands for the reference decoder's "data after the JSON
// body" outcome.
var errTrailing = errors.New("data after the JSON body")

// referenceDecode is the reflection decoder request bodies went through
// before the strict one: encoding/json with unknown fields disallowed,
// then nothing but whitespace.
func referenceDecode(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errTrailing
	}
	return nil
}

// decode runs the strict decoder over data.
func decode(data []byte, fields func(*wire.Body)) error {
	d := wire.NewBody(data)
	fields(d)
	return d.End()
}

// sameOutcome fails unless the strict decoder's error and the reference's
// agree: both accept, both reject the value, or both reject trailing data.
// It reports whether both accepted.
func sameOutcome(t *testing.T, what string, data []byte, err, refErr error) bool {
	t.Helper()
	trailing, refTrailing := errors.Is(err, wire.ErrTrailing), refErr == errTrailing
	if (err == nil) != (refErr == nil) || trailing != refTrailing {
		t.Fatalf("%s: error %v, reference error %v:\n%q", what, err, refErr, data)
	}
	return err == nil
}

// checkRelations fails unless the decoded relations agree with the
// reference's row map: as many names, and the same instance — or, when
// appending, the same delta — or the same error.
func checkRelations(t *testing.T, data []byte, rels *wire.Relations, rows map[string][][]int64, appending bool) {
	t.Helper()
	if rels.Len() != len(rows) {
		t.Fatalf("%d relations decoded, reference %d:\n%q", rels.Len(), len(rows), data)
	}
	build, refBuild := rels.Instance, func() (*ucq.Instance, error) { return ucq.InstanceFromRows(rows) }
	if appending {
		build, refBuild = rels.Delta, func() (*ucq.Instance, error) { return referenceAppendDelta(rows) }
	}
	got, err := build()
	want, wantErr := refBuild()
	switch {
	case (err == nil) != (wantErr == nil):
		t.Fatalf("append %v: error %v, reference error %v:\n%q", appending, err, wantErr, data)
	case err != nil && err.Error() != wantErr.Error():
		t.Fatalf("append %v: error %q, reference error %q:\n%q", appending, err, wantErr, data)
	case err == nil && !sameRows(got, want):
		t.Fatalf("append %v: built %v, reference %v:\n%q", appending, got, want, data)
	}
}

// sameRows reports whether two instances hold the same relations with the
// same arities and the same rows in the same order.
func sameRows(a, b *ucq.Instance) bool {
	if fmt.Sprint(a.Names()) != fmt.Sprint(b.Names()) {
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

// referenceAppendDelta is the row check Dataset.AppendRows ran before
// request bodies were decoded into value columns: the delta it handed to
// Instance.Extend, or its error.
func referenceAppendDelta(rels map[string][][]int64) (*ucq.Instance, error) {
	names := make([]string, 0, len(rels))
	for name := range rels {
		names = append(names, name)
	}
	sort.Strings(names)
	delta := database.NewInstance()
	for _, name := range names {
		rows := rels[name]
		if name == "" {
			return nil, fmt.Errorf("ucq: relation with empty name")
		}
		if len(rows) == 0 {
			continue
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
		delta.AddRelation(rel)
	}
	return delta, nil
}
