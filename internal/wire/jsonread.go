package wire

import (
	"bytes"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
)

// JSONReader pulls one JSON document apart the way encoding/json decodes it
// into a Go value, for the few shapes the daemons read. Reset (or
// ResetPrefix) checks the whole document's syntax first, as encoding/json
// does; then the caller walks it: Object or a slice, More and Key over the
// members, and one typed read per value. A typed read leaves its
// destination alone on null, and on a value of another kind records a
// JSONError (the first one wins) and skips it. Key matches member names as
// encoding/json matches field names: exactly or under Unicode case folding.
// What is accepted and the values read are encoding/json's; the error text
// is not.
type JSONReader struct {
	b   []byte
	i   int
	err error
	buf []byte // the last unquoted key
}

// JSONError is a document the reader refused. Offset is the byte it
// stopped at: where the grammar broke (the input's length when it ended
// too soon), or where a value that does not fit its destination begins.
type JSONError struct{ Offset int }

func (e *JSONError) Error() string { return "JSON refused at byte " + strconv.Itoa(e.Offset) }

// maxJSONDepth is encoding/json's nesting limit.
const maxJSONDepth = 10000

// Reset starts reading b, which must be what json.Unmarshal accepts: one
// value with only whitespace around it.
func (r *JSONReader) Reset(b []byte) error {
	*r = JSONReader{b: b, buf: r.buf[:0]}
	end, ok := scanJSON(b, 0, 0)
	if ok {
		end = skipSpace(b, end)
	}
	if !ok || end < len(b) {
		return &JSONError{end}
	}
	return nil
}

// ResetPrefix starts reading the value at the front of b, as a
// json.Decoder's Decode reads it from a stream holding b: whatever follows
// the value is not looked at.
func (r *JSONReader) ResetPrefix(b []byte) error {
	*r = JSONReader{buf: r.buf[:0]}
	end, ok := scanJSON(b, 0, 0)
	if !ok {
		return &JSONError{end}
	}
	r.b = b[:end]
	return nil
}

// Err is the first type error the reads met.
func (r *JSONReader) Err() error { return r.err }

// scanJSON checks the value at b[i:] (after any whitespace) against JSON's
// grammar and returns the index after it, or the index where the grammar
// broke and false; depth counts the open objects and arrays around it.
func scanJSON(b []byte, i, depth int) (int, bool) {
	if i = skipSpace(b, i); i == len(b) {
		return i, false
	}
	switch c := b[i]; {
	case c == '{' || c == '[':
		if depth++; depth > maxJSONDepth {
			return i, false
		}
		end := byte('}')
		if c == '[' {
			end = ']'
		}
		if i = skipSpace(b, i+1); i < len(b) && b[i] == end {
			return i + 1, true
		}
		for {
			var ok bool
			if c == '{' {
				if i == len(b) || b[i] != '"' {
					return i, false
				}
				if i, ok = scanString(b, i); !ok {
					return i, false
				}
				if i = skipSpace(b, i); i == len(b) || b[i] != ':' {
					return i, false
				}
				i++
			}
			if i, ok = scanJSON(b, i, depth); !ok {
				return i, false
			}
			switch i = skipSpace(b, i); {
			case i == len(b):
				return i, false
			case b[i] == ',':
				i = skipSpace(b, i+1)
			case b[i] == end:
				return i + 1, true
			default:
				return i, false
			}
		}
	case c == '"':
		return scanString(b, i)
	case c == '-' || isDigit(c):
		return scanNumber(b, i)
	case c == 't':
		return scanLiteral(b, i, "true")
	case c == 'f':
		return scanLiteral(b, i, "false")
	case c == 'n':
		return scanLiteral(b, i, "null")
	}
	return i, false
}

// want reports whether b[i] is there and one of the bytes ok accepts.
func want(b []byte, i int, ok func(byte) bool) bool { return i < len(b) && ok(b[i]) }

func scanString(b []byte, i int) (int, bool) {
	for i++; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			return i + 1, true
		case c == '\\':
			if i++; !want(b, i, isEscape) {
				return i, false
			}
			if b[i] == 'u' {
				for k := 0; k < 4; k++ {
					if i++; !want(b, i, isHex) {
						return i, false
					}
				}
			}
		case c < 0x20:
			return i, false
		}
	}
	return i, false
}

func isEscape(c byte) bool { return strings.IndexByte(`"\/bfnrtu`, c) >= 0 }

func isHex(c byte) bool { return isDigit(c) || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F' }

func scanNumber(b []byte, i int) (int, bool) {
	if b[i] == '-' {
		if i++; !want(b, i, isDigit) {
			return i, false
		}
	}
	if b[i] == '0' {
		i++
	} else {
		i = skipDigits(b, i)
	}
	if i < len(b) && b[i] == '.' {
		if i++; !want(b, i, isDigit) {
			return i, false
		}
		i = skipDigits(b, i)
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !want(b, i, isDigit) {
			return i, false
		}
		i = skipDigits(b, i)
	}
	return i, true
}

func skipDigits(b []byte, i int) int {
	for i < len(b) && isDigit(b[i]) {
		i++
	}
	return i
}

func scanLiteral(b []byte, i int, lit string) (int, bool) {
	for k := 1; k < len(lit); k++ {
		if i+k == len(b) || b[i+k] != lit[k] {
			return i + k, false
		}
	}
	return i + len(lit), true
}

// typeError records a value at off that does not fit the destination.
func (r *JSONReader) typeError(off int) {
	if r.err == nil {
		r.err = &JSONError{off}
	}
}

// mismatch records the next value as not fitting and skips it.
func (r *JSONReader) mismatch() {
	r.typeError(r.i)
	r.skip()
}

// Next is the first byte of the next token: of a value, '"' for a string,
// '{', '[', 't', 'f', 'n', or a number's first byte.
func (r *JSONReader) Next() byte {
	r.i = skipSpace(r.b, r.i)
	return r.b[r.i]
}

// skip passes over the next value, which the reset has checked.
func (r *JSONReader) skip() { r.i, _ = scanJSON(r.b, r.i, 0) }

// Null reads a null if one is next.
func (r *JSONReader) Null() bool {
	if r.Next() == 'n' {
		r.i += len("null")
		return true
	}
	return false
}

// Object opens the object that is next and reports true, or reports false
// after a null or a value of another kind, which is a type error.
func (r *JSONReader) Object() bool {
	switch r.Next() {
	case '{':
		r.i++
		return true
	case 'n':
		r.i += len("null")
	default:
		r.mismatch()
	}
	return false
}

// More reports whether the open object or array has another member, and
// closes it when it has not.
func (r *JSONReader) More() bool {
	c := r.Next()
	if c == ',' {
		r.i++
		c = r.Next()
	}
	if c == '}' || c == ']' {
		r.i++
		return false
	}
	return true
}

// Key reads the next member's name and reports which of names it matches,
// or -1.
func (r *JSONReader) Key(names ...string) int {
	r.key()
	for k, name := range names {
		if bytes.EqualFold(r.buf, []byte(name)) {
			return k
		}
	}
	return -1
}

func (r *JSONReader) key() {
	r.Next()
	r.buf = r.unquote(r.buf[:0])
	r.Next() // ':'
	r.i++
}

// unquote appends the string token at r.i, unescaped as encoding/json
// unescapes it: a lone surrogate and each byte of invalid UTF-8 become
// U+FFFD.
func (r *JSONReader) unquote(dst []byte) []byte {
	b, i := r.b, r.i+1
	for b[i] != '"' {
		c := b[i]
		switch {
		case c == '\\' && b[i+1] == 'u':
			rr := hex4(b[i+2:])
			i += 6
			if utf16.IsSurrogate(rr) {
				rr2 := rune(-1)
				if i+6 <= len(b) && b[i] == '\\' && b[i+1] == 'u' {
					rr2 = hex4(b[i+2:])
				}
				if dec := utf16.DecodeRune(rr, rr2); dec != utf8.RuneError {
					i += 6
					rr = dec
				} else {
					rr = utf8.RuneError
				}
			}
			dst = utf8.AppendRune(dst, rr)
		case c == '\\':
			switch c = b[i+1]; c {
			case 'b':
				c = '\b'
			case 'f':
				c = '\f'
			case 'n':
				c = '\n'
			case 'r':
				c = '\r'
			case 't':
				c = '\t'
			}
			dst = append(dst, c)
			i += 2
		case c < utf8.RuneSelf:
			dst = append(dst, c)
			i++
		default:
			rr, size := utf8.DecodeRune(b[i:])
			dst = utf8.AppendRune(dst, rr)
			i += size
		}
	}
	r.i = i + 1
	return dst
}

// hex4 is the value of four hex digits; -1 if they are not.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	v, err := strconv.ParseUint(string(b[:4]), 16, 16)
	if err != nil {
		return -1
	}
	return rune(v)
}

// String reads a string into *dst.
func (r *JSONReader) String(dst *string) {
	switch r.Next() {
	case '"':
		r.buf = r.unquote(r.buf[:0])
		*dst = string(r.buf)
	case 'n':
		r.i += len("null")
	default:
		r.mismatch()
	}
}

// Bool reads a bool into *dst.
func (r *JSONReader) Bool(dst *bool) {
	switch r.Next() {
	case 't':
		*dst = true
		r.i += len("true")
	case 'f':
		*dst = false
		r.i += len("false")
	case 'n':
		r.i += len("null")
	default:
		r.mismatch()
	}
}

// numberToken is the number token next and its offset, or nil after a null
// or a value of another kind, which is a type error.
func (r *JSONReader) numberToken() ([]byte, int) {
	switch c := r.Next(); {
	case c == 'n':
		r.i += len("null")
	case c == '-' || isDigit(c):
		start := r.i
		r.skip()
		return r.b[start:r.i], start
	default:
		r.mismatch()
	}
	return nil, 0
}

// Float reads a float64 into *dst; a number out of its range is a type
// error, as it is for encoding/json.
func (r *JSONReader) Float(dst *float64) {
	if lit, off := r.numberToken(); lit != nil {
		if f, _, ok := number(lit, 0); ok {
			*dst = f
		} else {
			r.typeError(off)
		}
	}
}

// Uint reads a uint64 into *dst.
func (r *JSONReader) Uint(dst *uint64) {
	if lit, off := r.numberToken(); lit != nil {
		if u, err := strconv.ParseUint(string(lit), 10, 64); err == nil {
			*dst = u
		} else {
			r.typeError(off)
		}
	}
}

// ReadInt reads an int or int64 into *dst.
func ReadInt[T int | int64](r *JSONReader, dst *T) {
	bits := 64
	if _, ok := any(*dst).(int); ok {
		bits = strconv.IntSize
	}
	if lit, off := r.numberToken(); lit != nil {
		if n, err := strconv.ParseInt(string(lit), 10, bits); err == nil {
			*dst = T(n)
		} else {
			r.typeError(off)
		}
	}
}

// Raw is the next value's bytes, as a json.RawMessage holds them.
func (r *JSONReader) Raw() []byte {
	start := skipSpace(r.b, r.i)
	r.skip()
	return r.b[start:r.i]
}

// Skip passes over the next value: an unknown member's.
func (r *JSONReader) Skip() { r.skip() }

// ReadSlice reads an array into *dst as encoding/json fills a slice: null
// makes it nil, elements are read by elem into the slots of *dst's backing
// array as they come (a null element keeps what the slot held), and an
// empty array is a new empty slice.
func ReadSlice[T any](r *JSONReader, dst *[]T, elem func(*T)) {
	switch r.Next() {
	case 'n':
		r.i += len("null")
		*dst = nil
		return
	case '[':
		r.i++
	default:
		r.mismatch()
		return
	}
	v, n := *dst, 0
	for r.More() {
		if n == len(v) {
			if n == cap(v) {
				var zero T
				v = append(v, zero)
			} else {
				v = v[:n+1]
			}
		}
		elem(&v[n])
		n++
	}
	if n == 0 {
		v = []T{}
	}
	*dst = v[:n]
}

// Floats reads an array of numbers into *dst.
func (r *JSONReader) Floats(dst *[]float64) {
	ReadSlice(r, dst, r.Float)
}
