package wire

import (
	"bytes"
	"io"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
)

// JSONReader pulls one JSON document apart the way encoding/json decodes it
// into a Go value, for the few shapes the daemons read. Reset (or
// ResetPrefix) checks the whole document's syntax first, as encoding/json
// does, with its error text; then the caller walks it: Object or a slice,
// More and Key over the members, and one typed read per value. A typed
// read leaves its destination alone on null, and on a value of another
// kind records encoding/json's type error (the first one wins, as there)
// and skips it. Key matches member names as encoding/json matches field
// names: exactly or under Unicode case folding.
type JSONReader struct {
	b   []byte
	i   int
	err error
	buf []byte // the last unquoted key
}

// maxJSONDepth is encoding/json's nesting limit.
const maxJSONDepth = 10000

// Reset starts reading b, which must be what json.Unmarshal accepts: one
// value with only whitespace around it.
func (r *JSONReader) Reset(b []byte) error {
	*r = JSONReader{b: b, buf: r.buf[:0]}
	end, err := scanJSON(b, 0, 0)
	if err != nil {
		return err
	}
	if end = skipSpace(b, end); end < len(b) {
		return badChar(b[end], "after top-level value")
	}
	return nil
}

// ResetPrefix starts reading the value at the front of b, as a
// json.Decoder's Decode reads it from a stream holding b: whatever follows
// the value is not looked at, an empty stream is io.EOF, and one that ends
// inside the value io.ErrUnexpectedEOF.
func (r *JSONReader) ResetPrefix(b []byte) error {
	*r = JSONReader{buf: r.buf[:0]}
	if skipSpace(b, 0) == len(b) {
		return io.EOF
	}
	end, err := scanJSON(b, 0, 0)
	if err != nil {
		if err.eof {
			return io.ErrUnexpectedEOF
		}
		return err
	}
	r.b = b[:end]
	return nil
}

// Err is the first type error the reads met.
func (r *JSONReader) Err() error { return r.err }

// jsonSyntaxError is encoding/json's *SyntaxError text. eof marks input
// that ended inside the value.
type jsonSyntaxError struct {
	msg string
	eof bool
}

func (e *jsonSyntaxError) Error() string {
	if e.msg == "" {
		return "unexpected end of JSON input"
	}
	return e.msg
}

func badChar(c byte, context string) *jsonSyntaxError {
	var q string
	switch c {
	case '\'':
		q = `'\''`
	case '"':
		q = `'"'`
	default:
		s := strconv.Quote(string(rune(c)))
		q = "'" + s[1:len(s)-1] + "'"
	}
	return &jsonSyntaxError{msg: "invalid character " + q + " " + context}
}

// atEOF is the error for input that ends where c was wanted: what
// encoding/json's scanner says when it steps a space there, or a bare
// end of input.
func atEOF(context string) *jsonSyntaxError {
	if context == "" {
		return &jsonSyntaxError{eof: true}
	}
	e := badChar(' ', context)
	e.eof = true
	return e
}

// scanJSON checks the value at b[i:] (after any whitespace) against JSON's
// grammar and returns the index after it; depth counts the open objects
// and arrays around it.
func scanJSON(b []byte, i, depth int) (int, *jsonSyntaxError) {
	if i = skipSpace(b, i); i == len(b) {
		return i, atEOF("")
	}
	switch c := b[i]; {
	case c == '{' || c == '[':
		if depth++; depth > maxJSONDepth {
			return i, badChar(c, "exceeded max depth")
		}
		end := byte('}')
		if c == '[' {
			end = ']'
		}
		if i = skipSpace(b, i+1); i < len(b) && b[i] == end {
			return i + 1, nil
		}
		for {
			var err *jsonSyntaxError
			if c == '{' {
				switch {
				case i == len(b):
					return i, atEOF("")
				case b[i] != '"':
					return i, badChar(b[i], "looking for beginning of object key string")
				}
				if i, err = scanString(b, i); err != nil {
					return i, err
				}
				switch i = skipSpace(b, i); {
				case i == len(b):
					return i, atEOF("")
				case b[i] != ':':
					return i, badChar(b[i], "after object key")
				}
				i++
			}
			if i, err = scanJSON(b, i, depth); err != nil {
				return i, err
			}
			if i = skipSpace(b, i); i == len(b) {
				return i, atEOF("")
			}
			switch b[i] {
			case ',':
				i = skipSpace(b, i+1)
			case end:
				return i + 1, nil
			default:
				if c == '{' {
					return i, badChar(b[i], "after object key:value pair")
				}
				return i, badChar(b[i], "after array element")
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
	default:
		return i, badChar(c, "looking for beginning of value")
	}
}

// want checks that b[i] is one of the bytes ok accepts.
func want(b []byte, i int, ok func(byte) bool, context string) *jsonSyntaxError {
	switch {
	case i == len(b):
		return atEOF(context)
	case !ok(b[i]):
		return badChar(b[i], context)
	}
	return nil
}

func scanString(b []byte, i int) (int, *jsonSyntaxError) {
	for i++; ; i++ {
		if i == len(b) {
			return i, atEOF("")
		}
		switch c := b[i]; {
		case c == '"':
			return i + 1, nil
		case c == '\\':
			i++
			if err := want(b, i, isEscape, "in string escape code"); err != nil {
				return i, err
			}
			if b[i] == 'u' {
				for k := 0; k < 4; k++ {
					i++
					if err := want(b, i, isHex, `in \u hexadecimal character escape`); err != nil {
						return i, err
					}
				}
			}
		case c < 0x20:
			return i, badChar(c, "in string literal")
		}
	}
}

func isEscape(c byte) bool { return strings.IndexByte(`"\/bfnrtu`, c) >= 0 }

func isHex(c byte) bool { return isDigit(c) || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F' }

func scanNumber(b []byte, i int) (int, *jsonSyntaxError) {
	if b[i] == '-' {
		i++
		if err := want(b, i, isDigit, "in numeric literal"); err != nil {
			return i, err
		}
	}
	if b[i] == '0' {
		i++
	} else {
		i = skipDigits(b, i)
	}
	if i < len(b) && b[i] == '.' {
		i++
		if err := want(b, i, isDigit, "after decimal point in numeric literal"); err != nil {
			return i, err
		}
		i = skipDigits(b, i)
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if err := want(b, i, isDigit, "in exponent of numeric literal"); err != nil {
			return i, err
		}
		i = skipDigits(b, i)
	}
	return i, nil
}

func skipDigits(b []byte, i int) int {
	for i < len(b) && isDigit(b[i]) {
		i++
	}
	return i
}

func scanLiteral(b []byte, i int, lit string) (int, *jsonSyntaxError) {
	for k := 1; k < len(lit); k++ {
		if i+k == len(b) || b[i+k] != lit[k] {
			context := "in literal " + lit + " (expecting '" + lit[k:k+1] + "')"
			if i+k == len(b) {
				return i + k, atEOF(context)
			}
			return i + k, badChar(b[i+k], context)
		}
	}
	return i + len(lit), nil
}

// jsonTypeError is encoding/json's *UnmarshalTypeError text: value is what
// the document holds ("string", "number 1e999", …), field the Go struct
// field path ("Decision.seq"; empty at the top), typ the Go type.
type jsonTypeError struct{ value, field, typ string }

func (e *jsonTypeError) Error() string {
	if e.field != "" {
		return "json: cannot unmarshal " + e.value + " into Go struct field " + e.field + " of type " + e.typ
	}
	return "json: cannot unmarshal " + e.value + " into Go value of type " + e.typ
}

// typeError records a value that does not fit the destination.
func (r *JSONReader) typeError(value, field, typ string) {
	if r.err == nil {
		r.err = &jsonTypeError{value, field, typ}
	}
}

// mismatch records the next value, which starts with c, as not fitting
// and skips it.
func (r *JSONReader) mismatch(c byte, field, typ string) {
	r.typeError(kind(c), field, typ)
	r.skip()
}

// Next is the first byte of the next token: of a value, '"' for a string,
// '{', '[', 't', 'f', 'n', or a number's first byte.
func (r *JSONReader) Next() byte {
	r.i = skipSpace(r.b, r.i)
	return r.b[r.i]
}

// kind names the value starting with c the way encoding/json's type
// errors do.
func kind(c byte) string {
	switch c {
	case '{':
		return "object"
	case '[':
		return "array"
	case '"':
		return "string"
	case 't', 'f':
		return "bool"
	}
	return "number"
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
// after a null or a value of another kind, which is a type error into the
// Go type typ at field.
func (r *JSONReader) Object(field, typ string) bool {
	switch c := r.Next(); c {
	case '{':
		r.i++
		return true
	case 'n':
		r.i += len("null")
	default:
		r.mismatch(c, field, typ)
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

// MapKey reads the next member's name, as a map key.
func (r *JSONReader) MapKey() string {
	r.key()
	return string(r.buf)
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
func (r *JSONReader) String(dst *string, field string) {
	switch c := r.Next(); c {
	case '"':
		r.buf = r.unquote(r.buf[:0])
		*dst = string(r.buf)
	case 'n':
		r.i += len("null")
	default:
		r.mismatch(c, field, "string")
	}
}

// Bool reads a bool into *dst.
func (r *JSONReader) Bool(dst *bool, field string) {
	switch c := r.Next(); c {
	case 't':
		*dst = true
		r.i += len("true")
	case 'f':
		*dst = false
		r.i += len("false")
	case 'n':
		r.i += len("null")
	default:
		r.mismatch(c, field, "bool")
	}
}

// numberToken is the number token next, or nil after a null or a value of
// another kind, which is a type error into typ.
func (r *JSONReader) numberToken(field, typ string) []byte {
	switch c := r.Next(); {
	case c == 'n':
		r.i += len("null")
	case c == '-' || isDigit(c):
		start := r.i
		r.skip()
		return r.b[start:r.i]
	default:
		r.mismatch(c, field, typ)
	}
	return nil
}

// Float reads a float64 into *dst; a number out of its range is a type
// error, as it is for encoding/json.
func (r *JSONReader) Float(dst *float64, field string) {
	if lit := r.numberToken(field, "float64"); lit != nil {
		if f, _, ok := number(lit, 0); ok {
			*dst = f
		} else {
			r.typeError("number "+string(lit), field, "float64")
		}
	}
}

// Uint reads a uint64 into *dst.
func (r *JSONReader) Uint(dst *uint64, field string) {
	if lit := r.numberToken(field, "uint64"); lit != nil {
		if u, err := strconv.ParseUint(string(lit), 10, 64); err == nil {
			*dst = u
		} else {
			r.typeError("number "+string(lit), field, "uint64")
		}
	}
}

// ReadInt reads an int or int64 into *dst.
func ReadInt[T int | int64](r *JSONReader, dst *T, field string) {
	typ, bits := "int64", 64
	if _, ok := any(*dst).(int); ok {
		typ, bits = "int", strconv.IntSize
	}
	if lit := r.numberToken(field, typ); lit != nil {
		if n, err := strconv.ParseInt(string(lit), 10, bits); err == nil {
			*dst = T(n)
		} else {
			r.typeError("number "+string(lit), field, typ)
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

// ReadSlice reads an array into *dst as encoding/json fills a slice of typ
// at field: null makes it nil, elements are read by elem into the slots of
// *dst's backing array as they come (a null element keeps what the slot
// held), and an empty array is a new empty slice.
func ReadSlice[T any](r *JSONReader, dst *[]T, field, typ string, elem func(*T)) {
	switch c := r.Next(); c {
	case 'n':
		r.i += len("null")
		*dst = nil
		return
	case '[':
		r.i++
	default:
		r.mismatch(c, field, typ)
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
func (r *JSONReader) Floats(dst *[]float64, field string) {
	ReadSlice(r, dst, field, "[]float64", func(f *float64) { r.Float(f, field) })
}
