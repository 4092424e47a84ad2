// Package storage is the durable dataset layer behind ucq-serve's
// -data-dir mode.
//
// Durability follows a classic snapshot + write-ahead-log split: Register
// and Replace write the full instance as an atomically renamed snapshot
// file, AppendRows deltas go to a per-dataset WAL, and every record is
// checksummed and fsynced before the write is acknowledged. Records are
// runs of internal/wire frames, so the store and the binary answer stream
// share one framing and one block codec. Recovery loads the newest
// snapshot and replays the WAL in version order, stopping at the first
// torn or corrupt record — by the fsync-on-ack contract, everything past
// that point was never acknowledged to a client.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/database"
	"repro/internal/wire"
)

// Record format. A snapshot file holds one record and the WAL one record
// per acknowledged append. A record is a run of internal/wire frames —
// the answer stream's framing and block codec:
//
//	per relation, sorted by name:
//	  kindRelation  uvarint arity, uvarint rows, name bytes
//	  wire.KindBlock × ⌈rows / wire.BlockRows(arity)⌉  the relation's rows
//	kindCommit      uvarint version, uvarint relation count
//
// Block values are the raw int64 words of database.Value. A record counts
// only once its commit frame is read: a run cut anywhere before it, or any
// frame failing its framing, checksum or counts, is a torn tail.
const (
	// Record-only frame kinds, outside the answer stream's kinds, so a
	// record never reads as an answer stream. Kinds 16 and 17 framed an
	// older value layout and no longer decode.
	kindRelation wire.Kind = 18
	kindCommit   wire.Kind = 19
)

// errTorn marks an incomplete or corrupt record.
var errTorn = errors.New("storage: torn or corrupt record")

// appendRecord appends the record of inst at version to dst. It fails on a
// relation no reader would accept, so nothing unreadable is acknowledged.
func appendRecord(dst []byte, version uint64, inst *database.Instance) ([]byte, error) {
	var p []byte
	names := inst.Names()
	for _, name := range names {
		rel := inst.Relation(name)
		arity, rows := rel.Arity(), rel.Len()
		p = binary.AppendUvarint(p[:0], uint64(arity))
		p = binary.AppendUvarint(p, uint64(rows))
		p = append(p, name...)
		if arity > wire.MaxArity || len(p) > wire.MaxFramePayload {
			return nil, fmt.Errorf("storage: relation of arity %d with a %d-byte name is too large to journal", arity, len(name))
		}
		dst = wire.AppendFrame(dst, kindRelation, p)
		for lo, step := 0, wire.BlockRows(arity); lo < rows; lo += step {
			hi := min(lo+step, rows)
			p = wire.AppendBlock(p[:0], rel.Values(lo, hi), arity, hi-lo)
			dst = wire.AppendFrame(dst, wire.KindBlock, p)
		}
	}
	p = binary.AppendUvarint(p[:0], version)
	p = binary.AppendUvarint(p, uint64(len(names)))
	return wire.AppendFrame(dst, kindCommit, p), nil
}

// readRecord parses the record at the front of a non-empty buf and returns
// its version, its relations and the bytes after it. Any framing, checksum
// or count violation, including a run cut before its commit frame, is
// errTorn. It never panics, and it allocates in proportion to the frames
// it has read.
func readRecord(buf []byte) (version uint64, inst *database.Instance, rest []byte, err error) {
	inst = database.NewInstance()
	var (
		rel        *database.Relation
		want, nrel int // rows rel declared; relations read
		vals       []database.Value
	)
	for {
		kind, p, next, err := wire.SplitFrame(buf)
		if err != nil {
			return 0, nil, nil, errTorn
		}
		buf = next
		if kind != wire.KindBlock && rel != nil && rel.Len() != want {
			return 0, nil, nil, errTorn
		}
		switch kind {
		case kindRelation:
			arity, ok1 := uvarint(&p)
			rows, ok2 := uvarint(&p)
			name := string(p)
			if !ok1 || !ok2 || arity > wire.MaxArity || rows > 1<<62 || inst.Relation(name) != nil {
				return 0, nil, nil, errTorn
			}
			rel, want = database.NewRelation(name, int(arity)), int(rows)
			inst.AddRelation(rel)
			nrel++
		case wire.KindBlock:
			if rel == nil {
				return 0, nil, nil, errTorn
			}
			var n int
			vals, n, err = wire.DecodeBlock(vals, p, rel.Arity())
			if err != nil || n > want-rel.Len() {
				return 0, nil, nil, errTorn
			}
			for r := range n {
				rel.Append(vals[r*rel.Arity() : (r+1)*rel.Arity()]...)
			}
		case kindCommit:
			version, ok1 := uvarint(&p)
			count, ok2 := uvarint(&p)
			if !ok1 || !ok2 || len(p) != 0 || count != uint64(nrel) {
				return 0, nil, nil, errTorn
			}
			return version, inst, buf, nil
		default:
			return 0, nil, nil, errTorn
		}
	}
}

// uvarint reads one uvarint off the front of *p.
func uvarint(p *[]byte) (uint64, bool) {
	v, n := binary.Uvarint(*p)
	if n <= 0 {
		return 0, false
	}
	*p = (*p)[n:]
	return v, true
}
