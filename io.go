package ucq

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/database"
	"repro/internal/wire"
)

// ReadRelationCSV reads a relation from comma- or whitespace-separated
// integer rows. Empty lines and lines starting with '#' are skipped. The
// arity is fixed by the first data row.
func ReadRelationCSV(r io.Reader, name string) (*Relation, error) {
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 1<<16), 1<<22)
	var rel *database.Relation
	line := 0
	for scanner.Scan() {
		line++
		text := strings.TrimSpace(scanner.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.FieldsFunc(text, func(r rune) bool {
			return r == ',' || r == ' ' || r == '\t' || r == ';'
		})
		vals := make([]int64, 0, len(fields))
		for _, f := range fields {
			f = strings.TrimSpace(f)
			if f == "" {
				continue
			}
			v, err := strconv.ParseInt(f, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("ucq: %s line %d: %v", name, line, err)
			}
			if v > database.MaxPayload || v < database.MinPayload {
				return nil, fmt.Errorf("ucq: %s line %d: value %d outside the %d-bit payload range", name, line, v, 56)
			}
			vals = append(vals, v)
		}
		if len(vals) == 0 {
			continue
		}
		if rel == nil {
			rel = database.NewRelation(name, len(vals))
		}
		if len(vals) != rel.Arity() {
			return nil, fmt.Errorf("ucq: %s line %d: %d values, expected %d", name, line, len(vals), rel.Arity())
		}
		rel.AppendInts(vals...)
	}
	if err := scanner.Err(); err != nil {
		return nil, fmt.Errorf("ucq: reading %s: %v", name, err)
	}
	if rel == nil {
		return nil, fmt.Errorf("ucq: relation %s has no rows; arity unknown", name)
	}
	return rel, nil
}

// InstanceFromRows builds an instance from a map of relation name to
// integer rows — the request wire format of the streaming server. Every
// relation must have at least one row (the arity is fixed by the first)
// and all rows of a relation must share that arity.
func InstanceFromRows(rels map[string][][]int64) (*Instance, error) {
	inst := database.NewInstance()
	// Deterministic order so error messages are stable.
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
		if err := appendWireRows(rel, name, rows); err != nil {
			return nil, err
		}
		inst.AddRelation(rel)
	}
	return inst, nil
}

// appendWireRows validates rows against rel's arity and the value payload
// range and appends them — the one validation path for relation rows
// arriving over the wire (InstanceFromRows and Dataset.AppendRows).
func appendWireRows(rel *database.Relation, name string, rows [][]int64) error {
	if err := validateWireRows(name, rel.Arity(), rows); err != nil {
		return err
	}
	appendValidatedRows(rel, rows)
	return nil
}

// validateWireRows checks rows against an expected arity and the value
// payload range without touching a relation, so writers can reject a bad
// payload before taking any lock.
func validateWireRows(name string, arity int, rows [][]int64) error {
	for i, row := range rows {
		if len(row) != arity {
			return fmt.Errorf("ucq: %s row %d: %d values, expected %d", name, i, len(row), arity)
		}
		for _, v := range row {
			if v > database.MaxPayload || v < database.MinPayload {
				return fmt.Errorf("ucq: %s row %d: value %d outside the %d-bit payload range", name, i, v, 56)
			}
		}
	}
	return nil
}

// appendValidatedRows appends rows already vetted by validateWireRows.
func appendValidatedRows(rel *database.Relation, rows [][]int64) {
	for _, row := range rows {
		rel.AppendInts(row...)
	}
}

// ReadInstanceJSON decodes a JSON object mapping relation names to integer
// rows, e.g. {"R": [[1,2],[3,4]], "S": [[2,5]]}, into an instance.
// Anything but whitespace after that one object is an error.
func ReadInstanceJSON(r io.Reader) (*Instance, error) {
	var rels map[string][][]int64
	dec := json.NewDecoder(r)
	if err := dec.Decode(&rels); err != nil {
		return nil, fmt.Errorf("ucq: decoding instance JSON: %v", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("ucq: decoding instance JSON: data after the instance object")
	}
	return InstanceFromRows(rels)
}

// AppendTupleJSON appends the tuple rendered as a JSON array to dst and
// returns the extended slice — the per-answer NDJSON codec of the
// streaming server, allocation-free once dst has capacity. Untagged values
// render as numbers; tagged values as "payload#tag" strings. It delegates
// to internal/wire so the server and clients share one codec
// (wire.ParseTupleNDJSON is its exact inverse).
func AppendTupleJSON(dst []byte, t Tuple) []byte {
	return wire.AppendTupleNDJSON(dst, t)
}

// WriteRelationCSV writes the relation as comma-separated rows in sorted
// order. Tagged values render as payload#tag.
func WriteRelationCSV(w io.Writer, rel *Relation) error {
	bw := bufio.NewWriter(w)
	for _, row := range rel.SortedRows() {
		for i, v := range row {
			if i > 0 {
				if _, err := bw.WriteString(","); err != nil {
					return err
				}
			}
			if _, err := bw.WriteString(v.String()); err != nil {
				return err
			}
		}
		if _, err := bw.WriteString("\n"); err != nil {
			return err
		}
	}
	return bw.Flush()
}
