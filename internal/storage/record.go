// Package storage is the durable dataset layer behind ucq-serve's
// -data-dir mode.
//
// Durability follows a classic snapshot + write-ahead-log split: Register
// and Replace write the full instance as an atomically renamed snapshot
// file, AppendRows deltas go to a per-dataset WAL, and every record is
// length-prefixed, checksummed and fsynced before the write is
// acknowledged. Recovery loads the newest valid snapshot and replays the
// WAL in version order, stopping at the first torn or corrupt record — by
// the fsync-on-ack contract, everything past that point was never
// acknowledged to a client.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sort"

	"repro/internal/database"
)

// Record framing. Every durable write — a snapshot file's single record
// and each WAL append — is one length-prefixed, checksummed record:
//
//	magic   u32  recordMagic
//	length  u32  payload bytes (≤ maxRecordBytes)
//	crc     u32  CRC-32 (IEEE) of the payload
//	payload length bytes
//
// All integers are little-endian. A record whose magic, length or checksum
// does not hold is a torn tail: replay stops there and the tail is
// truncated away.
const (
	recordMagic  = 0x55435157 // "UCQW"
	recordHeader = 12
	// maxRecordBytes bounds one record's payload; anything larger is
	// treated as corruption rather than a 4 GiB allocation.
	maxRecordBytes = 1 << 28
)

// errTorn marks an incomplete or corrupt record tail.
var errTorn = errors.New("storage: torn or corrupt record")

// appendRecord appends the framed record for payload to dst.
func appendRecord(dst, payload []byte) []byte {
	var hdr [recordHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:], recordMagic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[8:], crc32.ChecksumIEEE(payload))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// nextRecord slices one record's payload off buf, returning the payload and
// the bytes that follow it. It returns io.EOF on an empty buffer and
// errTorn when the leading bytes do not form a complete valid record.
func nextRecord(buf []byte) (payload, rest []byte, err error) {
	if len(buf) == 0 {
		return nil, nil, io.EOF
	}
	if len(buf) < recordHeader {
		return nil, nil, errTorn
	}
	if binary.LittleEndian.Uint32(buf[0:]) != recordMagic {
		return nil, nil, errTorn
	}
	n := binary.LittleEndian.Uint32(buf[4:])
	if n > maxRecordBytes || int(n) > len(buf)-recordHeader {
		return nil, nil, errTorn
	}
	payload = buf[recordHeader : recordHeader+int(n)]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(buf[8:]) {
		return nil, nil, errTorn
	}
	return payload, buf[recordHeader+int(n):], nil
}

// Payload encodings. Snapshots and WAL appends share one relation-table
// layout:
//
//	version  u64
//	nrels    u32
//	per relation (sorted by name):
//	  nameLen u32, name bytes
//	  arity   u32
//	  nrows   u32
//	  nrows × arity value words (u64)
//
// Snapshot value words are raw database.Value bits (any word is a
// structurally valid Value, so decoding cannot fail on them). WAL append
// words are the wire-format int64 rows of Dataset.AppendRows and are
// payload-range-checked on decode, exactly like the HTTP wire codec.

// encodeInstance renders (version, inst) as a snapshot payload.
func encodeInstance(version uint64, inst *database.Instance) []byte {
	names := inst.Names()
	size := 8 + 4
	for _, name := range names {
		r := inst.Relation(name)
		size += 4 + len(name) + 4 + 4 + r.Len()*r.Arity()*8
	}
	out := make([]byte, 0, size)
	out = binary.LittleEndian.AppendUint64(out, version)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(names)))
	for _, name := range names {
		r := inst.Relation(name)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(name)))
		out = append(out, name...)
		out = binary.LittleEndian.AppendUint32(out, uint32(r.Arity()))
		out = binary.LittleEndian.AppendUint32(out, uint32(r.Len()))
		for i := 0; i < r.Len(); i++ {
			for _, v := range r.Row(i) {
				out = binary.LittleEndian.AppendUint64(out, uint64(v))
			}
		}
	}
	return out
}

// decodeInstance parses a snapshot payload. It never panics on arbitrary
// bytes: every count is validated against the remaining length.
func decodeInstance(payload []byte) (uint64, *database.Instance, error) {
	c := cursor{buf: payload}
	version := c.u64()
	nrels := c.u32()
	inst := database.NewInstance()
	for i := uint32(0); i < nrels; i++ {
		name := c.str()
		arity := c.u32()
		nrows := c.u32()
		if c.err != nil {
			return 0, nil, c.err
		}
		if name == "" || arity > 1<<16 {
			return 0, nil, errTorn
		}
		if arity > 0 && uint64(nrows)*uint64(arity)*8 > uint64(len(c.buf)) {
			return 0, nil, errTorn
		}
		rel := database.NewRelation(name, int(arity))
		if arity == 0 {
			for r := uint32(0); r < nrows && r < 1; r++ {
				rel.Append()
			}
		} else {
			row := make([]database.Value, arity)
			for r := uint32(0); r < nrows; r++ {
				for k := range row {
					row[k] = database.Value(c.u64())
				}
				rel.Append(row...)
			}
		}
		inst.AddRelation(rel)
	}
	if c.err != nil {
		return 0, nil, c.err
	}
	if len(c.buf) != 0 {
		return 0, nil, errTorn
	}
	return version, inst, nil
}

// encodeAppend renders (version, wire rows) as a WAL append payload.
// Relations are written in sorted-name order; empty row lists are skipped,
// mirroring Dataset.AppendRows.
func encodeAppend(version uint64, rels map[string][][]int64) []byte {
	names := make([]string, 0, len(rels))
	for name := range rels {
		if len(rels[name]) > 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	out := make([]byte, 0, 64)
	out = binary.LittleEndian.AppendUint64(out, version)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(names)))
	for _, name := range names {
		rows := rels[name]
		out = binary.LittleEndian.AppendUint32(out, uint32(len(name)))
		out = append(out, name...)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(rows[0])))
		out = binary.LittleEndian.AppendUint32(out, uint32(len(rows)))
		for _, row := range rows {
			for _, v := range row {
				out = binary.LittleEndian.AppendUint64(out, uint64(v))
			}
		}
	}
	return out
}

// decodeAppend parses a WAL append payload back into wire rows. Values are
// payload-range-checked like the HTTP wire codec, so replay can rebuild
// relations without panicking; any inconsistency is reported as corruption.
func decodeAppend(payload []byte) (uint64, map[string][][]int64, error) {
	c := cursor{buf: payload}
	version := c.u64()
	nrels := c.u32()
	rels := make(map[string][][]int64)
	for i := uint32(0); i < nrels; i++ {
		name := c.str()
		arity := c.u32()
		nrows := c.u32()
		if c.err != nil {
			return 0, nil, c.err
		}
		if name == "" || arity == 0 || arity > 1<<16 || nrows == 0 {
			return 0, nil, errTorn
		}
		if uint64(nrows)*uint64(arity)*8 > uint64(len(c.buf)) {
			return 0, nil, errTorn
		}
		if _, dup := rels[name]; dup {
			return 0, nil, errTorn
		}
		rows := make([][]int64, nrows)
		for r := range rows {
			row := make([]int64, arity)
			for k := range row {
				v := int64(c.u64())
				if v > database.MaxPayload || v < database.MinPayload {
					return 0, nil, fmt.Errorf("storage: WAL value %d outside the payload range: %w", v, errTorn)
				}
				row[k] = v
			}
			rows[r] = row
		}
		rels[name] = rows
	}
	if c.err != nil {
		return 0, nil, c.err
	}
	if len(c.buf) != 0 {
		return 0, nil, errTorn
	}
	return version, rels, nil
}

// cursor is a bounds-checked little-endian reader; the first short read
// latches err and zeroes every later read.
type cursor struct {
	buf []byte
	err error
}

func (c *cursor) u32() uint32 {
	if c.err != nil || len(c.buf) < 4 {
		c.err = errTorn
		return 0
	}
	v := binary.LittleEndian.Uint32(c.buf)
	c.buf = c.buf[4:]
	return v
}

func (c *cursor) u64() uint64 {
	if c.err != nil || len(c.buf) < 8 {
		c.err = errTorn
		return 0
	}
	v := binary.LittleEndian.Uint64(c.buf)
	c.buf = c.buf[8:]
	return v
}

func (c *cursor) str() string {
	n := c.u32()
	if c.err != nil || n > 1<<16 || int(n) > len(c.buf) {
		c.err = errTorn
		return ""
	}
	s := string(c.buf[:n])
	c.buf = c.buf[n:]
	return s
}
