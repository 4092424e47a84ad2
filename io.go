package ucq

import (
	"bufio"
	"errors"
	"fmt"
	"io"
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
// integer rows — the relations object of the streaming server's request
// bodies. Every relation must have at least one row (the arity is fixed by
// the first, which must not be empty), all rows of a relation must share
// that arity; any int64 is a value. The rows go through the checks request bodies are decoded with
// (wire.Relations), so both report a fault alike; with several faults the
// relation first in name order is reported, at its first faulty row.
func InstanceFromRows(rels map[string][][]int64) (*Instance, error) {
	return wire.RelationsOf(rels).Instance()
}

// checkInstanceArity rejects an instance with a relation wider than
// wire.MaxArity, the widest tuple an answer stream or a journal record
// carries.
func checkInstanceArity(inst *Instance) error {
	for _, name := range inst.Names() {
		if err := wire.CheckArity(name, inst.Relation(name).Arity()); err != nil {
			return err
		}
	}
	return nil
}

// ReadInstanceJSON decodes a JSON object mapping relation names to integer
// rows, e.g. {"R": [[1,2],[3,4]], "S": [[2,5]]}, into an instance, with
// InstanceFromRows's rules. It reads the object with the strict decoder of
// the server's request bodies (wire.Body), which accepts exactly what
// encoding/json accepts for a map[string][][]int64 and packs each
// relation's rows straight into its value column; anything but whitespace
// after that one object is an error.
func ReadInstanceJSON(r io.Reader) (*Instance, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("ucq: decoding instance JSON: %v", err)
	}
	var rels wire.Relations
	d := wire.NewBody(data)
	d.Relations(&rels)
	switch err := d.End(); {
	case errors.Is(err, wire.ErrTrailing):
		return nil, fmt.Errorf("ucq: decoding instance JSON: data after the instance object")
	case err != nil:
		return nil, fmt.Errorf("ucq: decoding instance JSON: %v", err)
	}
	return rels.Instance()
}

// AppendTupleJSON appends the tuple rendered as a JSON array to dst and
// returns the extended slice — the per-answer NDJSON codec of the
// streaming server, allocation-free once dst has capacity: every value
// renders as a JSON integer. It delegates to internal/wire so the server and clients share one codec
// (wire.ParseTupleNDJSON is its exact inverse).
func AppendTupleJSON(dst []byte, t Tuple) []byte {
	return wire.AppendTupleNDJSON(dst, t)
}

// WriteRelationCSV writes the relation as comma-separated integer rows in
// sorted order (Tuple.Less: numeric, column by column), which
// ReadRelationCSV reads back.
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
