package wire

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"unicode"
	"unicode/utf8"

	"repro/internal/database"
)

// Body decodes one JSON request body in a single pass over its bytes, with
// no reflection: the caller names the fields it knows (Object, KeyIs) and
// reads each value with the reader of its Go type (String, Bool, Int,
// Uint, Relations). It accepts and rejects exactly what encoding/json's
// Decoder does with DisallowUnknownFields followed by a check that only
// whitespace remains, and fills the same values, quirks included: struct
// keys match case-insensitively, a repeated key's later value wins (and a
// repeated object merges into the earlier one), null leaves a value as it
// is, an integer field rejects fractions, exponents and out-of-range
// numbers, and invalid UTF-8 in a string becomes U+FFFD.
//
// Errors follow encoding/json's precedence too: a syntax error anywhere in
// the value wins; otherwise the first type error or unknown field, in
// document order; then trailing data (ErrTrailing). End reports the
// outcome. A Body is for one goroutine.
type Body struct {
	data  []byte
	i     int
	depth int
	// syntax is the first syntax error; it ends decoding.
	syntax error
	// err is the first type error or unknown field; decoding goes on past
	// it, since a later syntax error still takes precedence.
	err error
	// scratch is the value column Relations decodes each relation into
	// before copying it out at its exact size, reused across relations.
	scratch []database.Value
}

// ErrTrailing is End's error for a body whose JSON value is followed by
// anything but whitespace.
var ErrTrailing = errors.New("wire: data after the JSON value")

// maxDepth is encoding/json's nesting limit. No field a request body
// knows nests deeper than four levels, so a deeper value is an error
// either way; the limit only bounds the decoder's recursion.
const maxDepth = 10000

// NewBody returns a decoder for the JSON value in data.
func NewBody(data []byte) *Body {
	return &Body{data: data}
}

// End finishes decoding: it returns the value's first error, as described
// on Body, or ErrTrailing when anything but whitespace follows the value.
// An empty body is io.EOF, a truncated one io.ErrUnexpectedEOF, as
// json.Decoder reports them.
func (d *Body) End() error {
	if d.syntax != nil {
		return d.syntax
	}
	if d.err != nil {
		return d.err
	}
	d.ws()
	if d.i != len(d.data) {
		return ErrTrailing
	}
	return nil
}

// KeyIs reports whether an object key names the struct field field (an
// ASCII name) as encoding/json matches them: exactly, or after folding
// every rune r of the key to unicode.ToUpper(unicode.ToLower(r)) and
// every letter of the name to upper case.
func KeyIs(key []byte, field string) bool {
	if string(key) == field {
		return true
	}
	j := 0
	for i := 0; i < len(key); j++ {
		r, n := rune(upper(key[i])), 1
		if key[i] >= utf8.RuneSelf {
			r, n = utf8.DecodeRune(key[i:])
			r = unicode.ToUpper(unicode.ToLower(r))
		}
		i += n
		if j == len(field) || r != rune(upper(field[j])) {
			return false
		}
	}
	return j == len(field)
}

// upper folds an ASCII letter to upper case.
func upper(c byte) byte {
	if 'a' <= c && c <= 'z' {
		return c - 'a' + 'A'
	}
	return c
}

// Object decodes an object into the struct type typ (named in type errors)
// through field, which decodes the value of every key it knows and
// returns false, consuming nothing, for any other: that is an unknown
// field error and the value is skipped. null leaves the struct as it is.
func (d *Body) Object(typ string, field func(key []byte) bool) {
	switch d.start() {
	case 'n':
		d.literal("null")
	case '{':
		d.members(func(key []byte) {
			if !field(key) {
				d.save(fmt.Errorf("json: unknown field %q", key))
				d.skip()
			}
		})
	default:
		d.mismatch(typ)
	}
}

// String decodes a string value into dst; null leaves it as it is.
func (d *Body) String(dst *string) {
	switch d.start() {
	case 'n':
		d.literal("null")
	case '"':
		if s, ok := d.str(); ok {
			*dst = string(d.text(s))
		}
	default:
		d.mismatch("string")
	}
}

// Bool decodes true or false into dst; null leaves it as it is.
func (d *Body) Bool(dst *bool) {
	switch d.start() {
	case 'n':
		d.literal("null")
	case 't':
		if d.literal("true") {
			*dst = true
		}
	case 'f':
		if d.literal("false") {
			*dst = false
		}
	default:
		d.mismatch("bool")
	}
}

// Int decodes an integer into dst; null leaves it as it is.
func (d *Body) Int(dst *int) {
	if v, ok := d.int64("int"); ok {
		*dst = int(v)
	}
}

// Uint decodes a non-negative integer into dst; null leaves it as it is.
func (d *Body) Uint(dst *uint64) {
	switch c := d.start(); {
	case c == 'n':
		d.literal("null")
	case c == '-' || isDigit(c):
		start := d.i
		switch neg, mag, ok := d.number(); {
		case d.syntax != nil:
		case neg || !ok:
			d.save(typeError("number "+string(d.data[start:d.i]), "uint64"))
		default:
			*dst = mag
		}
	default:
		d.mismatch("uint64")
	}
}

// int64 reads a number value that fits typ (int or int64, both 64 bits
// wide): ok is false on null, which leaves the destination as it is, and
// on error.
func (d *Body) int64(typ string) (v int64, ok bool) {
	switch c := d.start(); {
	case c == 'n':
		d.literal("null")
	case c == '-' || isDigit(c):
		start := d.i
		neg, mag, isInt := d.number()
		switch {
		case d.syntax != nil:
		case !isInt || mag > 1<<63 || (!neg && mag > 1<<63-1):
			d.save(typeError("number "+string(d.data[start:d.i]), typ))
		case neg:
			return -int64(mag), true
		default:
			return int64(mag), true
		}
	default:
		d.mismatch(typ)
	}
	return 0, false
}

// start skips whitespace and returns the byte that starts the next value,
// or 0 once decoding has failed. At the end of the data it records
// io.ErrUnexpectedEOF, or io.EOF for the top-level value: a body of
// nothing but whitespace.
func (d *Body) start() byte {
	if d.syntax != nil {
		return 0
	}
	d.ws()
	if d.i == len(d.data) {
		d.syntax = io.ErrUnexpectedEOF
		if d.depth == 0 {
			d.syntax = io.EOF
		}
		return 0
	}
	c := d.data[d.i]
	if c == 0 {
		d.fail("looking for beginning of value")
	}
	return c
}

func (d *Body) ws() {
	for d.i < len(d.data) && isSpace(d.data[d.i]) {
		d.i++
	}
}

func isSpace(c byte) bool { return c <= ' ' && (c == ' ' || c == '\t' || c == '\n' || c == '\r') }

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// save records a type error or unknown field unless an earlier one is
// already recorded.
func (d *Body) save(err error) {
	if d.err == nil {
		d.err = err
	}
}

// fail records a syntax error at d.i; decoding stops.
func (d *Body) fail(context string) {
	if d.syntax != nil {
		return
	}
	if d.i >= len(d.data) {
		d.syntax = io.ErrUnexpectedEOF
		return
	}
	d.syntax = fmt.Errorf("invalid character %q %s (offset %d)", d.data[d.i], context, d.i)
}

func typeError(what, typ string) error {
	return fmt.Errorf("json: cannot unmarshal %s into Go value of type %s", what, typ)
}

// mismatch saves a type error for the value at d.i, which typ cannot hold,
// and skips the value.
func (d *Body) mismatch(typ string) {
	var what string
	switch c := d.start(); {
	case c == 0:
		return
	case c == '{':
		what = "object"
	case c == '[':
		what = "array"
	case c == '"':
		what = "string"
	case c == 't' || c == 'f':
		what = "bool"
	case c == '-' || isDigit(c):
		what = "number"
	default:
		d.fail("looking for beginning of value")
		return
	}
	start := d.i
	d.skip()
	if what == "number" {
		what += " " + string(d.data[start:d.i])
	}
	d.save(typeError(what, typ))
}

// skip consumes one value of any type, checking its syntax.
func (d *Body) skip() {
	switch c := d.start(); {
	case c == 0:
	case c == '{':
		d.members(func([]byte) { d.skip() })
	case c == '[':
		d.elements(d.skip)
	case c == '"':
		d.str()
	case c == 't':
		d.literal("true")
	case c == 'f':
		d.literal("false")
	case c == 'n':
		d.literal("null")
	case c == '-' || isDigit(c):
		d.number()
	default:
		d.fail("looking for beginning of value")
	}
}

// members walks the object at d.i, calling each with every key; each must
// consume the member's value.
func (d *Body) members(each func(key []byte)) {
	d.walk('}', "after object key:value pair", func() {
		if d.ws(); d.i >= len(d.data) || d.data[d.i] != '"' {
			d.fail("looking for beginning of object key string")
			return
		}
		s, ok := d.str()
		if !ok {
			return
		}
		if d.ws(); d.i >= len(d.data) || d.data[d.i] != ':' {
			d.fail("after object key")
			return
		}
		d.i++
		each(d.text(s))
	})
}

// elements walks the array at d.i, calling each for every element; each
// must consume it.
func (d *Body) elements(each func()) {
	d.walk(']', "after array element", each)
}

// walk consumes the object or array opening at d.i and ending with end,
// calling item for each comma-separated item; after is the context of a
// syntax error between items. It enforces the nesting limit.
func (d *Body) walk(end byte, after string, item func()) {
	if d.depth++; d.depth > maxDepth {
		d.syntax = errors.New("exceeded max depth")
		return
	}
	d.i++
	if d.ws(); d.i < len(d.data) && d.data[d.i] == end {
		d.i++
		d.depth--
		return
	}
	for {
		item()
		switch d.ws(); {
		case d.syntax != nil:
			return
		case d.i < len(d.data) && d.data[d.i] == ',':
			d.i++
		case d.i < len(d.data) && d.data[d.i] == end:
			d.i++
			d.depth--
			return
		default:
			d.fail(after)
			return
		}
	}
}

// literal consumes the literal lit (true, false or null) at d.i.
func (d *Body) literal(lit string) bool {
	for k := 0; k < len(lit); k++ {
		if d.i >= len(d.data) || d.data[d.i] != lit[k] {
			d.fail("in literal " + lit)
			return false
		}
		d.i++
	}
	return true
}

// number consumes a number at d.i. isInt reports that it has no fraction
// and no exponent and that its magnitude mag fits in a uint64; neg that it
// starts with a minus sign.
func (d *Body) number() (neg bool, mag uint64, isInt bool) {
	data := d.data
	if data[d.i] == '-' {
		neg = true
		d.i++
	}
	isInt = true
	switch {
	case d.i < len(data) && data[d.i] == '0':
		d.i++
	case d.i < len(data) && '1' <= data[d.i] && data[d.i] <= '9':
		start := d.i
		for ; d.i < len(data) && isDigit(data[d.i]); d.i++ {
			mag = mag*10 + uint64(data[d.i]-'0')
		}
		if d.i-start > 19 { // mag may have wrapped
			u, err := strconv.ParseUint(string(data[start:d.i]), 10, 64)
			mag, isInt = u, err == nil
		}
	default:
		d.fail("in numeric literal")
		return
	}
	if d.i < len(data) && data[d.i] == '.' {
		isInt = false
		d.i++
		if !d.digits() {
			return
		}
	}
	if d.i < len(data) && (data[d.i] == 'e' || data[d.i] == 'E') {
		isInt = false
		d.i++
		if d.i < len(data) && (data[d.i] == '+' || data[d.i] == '-') {
			d.i++
		}
		d.digits()
	}
	return neg, mag, isInt
}

// digits consumes one or more digits.
func (d *Body) digits() bool {
	if d.i >= len(d.data) || !isDigit(d.data[d.i]) {
		d.fail("in numeric literal")
		return false
	}
	for d.i < len(d.data) && isDigit(d.data[d.i]) {
		d.i++
	}
	return true
}

// strToken is a scanned string: the quoted token's bounds in the body and
// whether it holds an escape.
type strToken struct {
	start, end int
	escaped    bool
}

// str consumes the string at d.i, checking its syntax.
func (d *Body) str() (strToken, bool) {
	data := d.data
	s := strToken{start: d.i}
	for d.i++; d.i < len(data); d.i++ {
		switch c := data[d.i]; {
		case c == '"':
			d.i++
			s.end = d.i
			return s, true
		case c == '\\':
			s.escaped = true
			d.i++
			if d.i >= len(data) {
				break
			}
			switch data[d.i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				for k := 0; k < 4; k++ {
					if d.i++; d.i >= len(data) || !isHex(data[d.i]) {
						d.fail("in \\u hexadecimal character escape")
						return s, false
					}
				}
			default:
				d.fail("in string escape code")
				return s, false
			}
		case c < 0x20:
			d.fail("in string literal")
			return s, false
		}
	}
	d.fail("in string literal")
	return s, false
}

func isHex(c byte) bool {
	return isDigit(c) || ('a' <= c && c <= 'f') || ('A' <= c && c <= 'F')
}

// text returns the contents of the string s, unescaped as encoding/json
// does; they alias the body when nothing needs unescaping.
func (d *Body) text(s strToken) []byte {
	raw := d.data[s.start+1 : s.end-1]
	if !s.escaped && utf8.Valid(raw) {
		return raw
	}
	var out string
	// The token's syntax is checked, so the standard library cannot fail.
	_ = json.Unmarshal(d.data[s.start:s.end], &out)
	return []byte(out)
}
