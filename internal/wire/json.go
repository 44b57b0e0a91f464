package wire

import (
	"math"
	"strconv"
	"unicode/utf8"
)

// JSON appends one JSON document to B, laid out the way encoding/json lays
// it out: compact, as json.Marshal writes it, or with Indent set, as
// json.MarshalIndent(v, "", "  ") does — also what an Encoder with
// SetIndent("", "  ") writes before its newline. The caller writes the
// document's structure itself (Object, Key, a value, EndObject, …), so a
// type's JSON is code next to the type, not reflection over its tags;
// the tags stay as the specification its tests hold it to. Strings are
// escaped as encoding/json escapes them (HTML characters, U+2028, U+2029,
// invalid UTF-8) and floats formatted as it formats them. A float JSON
// cannot carry is an *UnsupportedValueError in Err.
type JSON struct {
	B      []byte
	Indent bool

	depth int
	empty bool // the innermost open container has no element yet
	value bool // a key was just written: its value follows it
	err   error
}

// WriteJSON answers the document write writes, indented, and a newline —
// what json.MarshalIndent(v, "", "  ") and an Encoder with SetIndent("",
// "  ") write — as application/json, or 500 naming a value JSON cannot
// carry: the body is encoded whole before the status goes out.
func WriteJSON(w ResponseWriter, write func(*JSON)) {
	j := JSON{Indent: true}
	write(&j)
	if j.err != nil {
		Error(w, "encoding response: "+j.err.Error(), StatusInternalError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(j.B, '\n'))
}

// UnsupportedValueError is a value JSON cannot carry; its text is
// encoding/json's for the same value.
type UnsupportedValueError struct{ Str string }

func (e *UnsupportedValueError) Error() string { return "json: unsupported value: " + e.Str }

// Err is the first value that could not be written.
func (j *JSON) Err() error { return j.err }

// elem starts a value: after its key, or as the next element of the open
// container.
func (j *JSON) elem() {
	switch {
	case j.value:
		j.value = false
		return
	case j.depth == 0:
		return
	case !j.empty:
		j.B = append(j.B, ',')
	}
	j.empty = false
	j.newline(j.depth)
}

func (j *JSON) newline(depth int) {
	if j.Indent {
		j.B = append(j.B, '\n')
		for ; depth > 0; depth-- {
			j.B = append(j.B, ' ', ' ')
		}
	}
}

func (j *JSON) open(c byte) *JSON {
	j.elem()
	j.B = append(j.B, c)
	j.depth++
	j.empty = true
	return j
}

func (j *JSON) close(c byte) *JSON {
	j.depth--
	if !j.empty {
		j.newline(j.depth)
	}
	j.empty = false
	j.B = append(j.B, c)
	return j
}

// Object opens an object, EndObject closes it.
func (j *JSON) Object() *JSON    { return j.open('{') }
func (j *JSON) EndObject() *JSON { return j.close('}') }

// Array opens an array, EndArray closes it.
func (j *JSON) Array() *JSON    { return j.open('[') }
func (j *JSON) EndArray() *JSON { return j.close(']') }

// Key writes the next member's name; its value comes next.
func (j *JSON) Key(k string) *JSON {
	j.elem()
	j.B = appendString(j.B, k)
	j.B = append(j.B, ':')
	if j.Indent {
		j.B = append(j.B, ' ')
	}
	j.value = true
	return j
}

// String writes s as a JSON string.
func (j *JSON) String(s string) *JSON {
	j.elem()
	j.B = appendString(j.B, s)
	return j
}

// Uint writes u.
func (j *JSON) Uint(u uint64) *JSON {
	j.elem()
	j.B = strconv.AppendUint(j.B, u, 10)
	return j
}

// Int writes i.
func (j *JSON) Int(i int64) *JSON {
	j.elem()
	j.B = strconv.AppendInt(j.B, i, 10)
	return j
}

// Float writes f as encoding/json writes a float64; NaN and ±Inf fail.
func (j *JSON) Float(f float64) *JSON {
	j.elem()
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if j.err == nil {
			j.err = &UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		j.B = append(j.B, "null"...)
		return j
	}
	j.B = appendScore(j.B, f)
	return j
}

// Bool writes b.
func (j *JSON) Bool(b bool) *JSON {
	j.elem()
	j.B = strconv.AppendBool(j.B, b)
	return j
}

// Null writes null: what encoding/json writes for a nil slice, map or
// pointer.
func (j *JSON) Null() *JSON {
	j.elem()
	j.B = append(j.B, "null"...)
	return j
}

// Raw writes v, one valid JSON value, as encoding/json writes a
// json.RawMessage: compacted, HTML characters and U+2028/U+2029 escaped,
// and re-indented to where it lands in the document. String contents keep
// their own escapes.
func (j *JSON) Raw(v []byte) *JSON {
	j.elem()
	depth, pending, inString := j.depth, false, false
	for i := 0; i < len(v); i++ {
		c := v[i]
		if inString || c == '"' {
			switch {
			case c == '<' || c == '>' || c == '&':
				j.B = append(j.B, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
				continue
			case c == 0xE2 && i+2 < len(v) && v[i+1] == 0x80 && v[i+2]&^1 == 0xA8:
				j.B = append(j.B, '\\', 'u', '2', '0', '2', hexDigits[v[i+2]&0xF])
				i += 2
				continue
			case c == '\\' && inString:
				j.B = append(j.B, c, v[i+1])
				i++
				continue
			case c == '"' && inString:
				inString = false
				j.B = append(j.B, c)
				continue
			case inString:
				j.B = append(j.B, c)
				continue
			}
		}
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			continue
		}
		if pending && c != '}' && c != ']' {
			pending = false
			depth++
			j.newline(depth)
		}
		switch c {
		case '"':
			inString = true
			j.B = append(j.B, c)
		case '{', '[':
			pending = true
			j.B = append(j.B, c)
		case ',':
			j.B = append(j.B, c)
			j.newline(depth)
		case ':':
			j.B = append(j.B, c)
			if j.Indent {
				j.B = append(j.B, ' ')
			}
		case '}', ']':
			if pending {
				pending = false
			} else {
				depth--
				j.newline(depth)
			}
			j.B = append(j.B, c)
		default:
			j.B = append(j.B, c)
		}
	}
	return j
}

const hexDigits = "0123456789abcdef"

// appendScore writes a finite float64 the way encoding/json does: the
// shortest round-trip digits, in exponent form outside [1e-6, 1e21) with
// the exponent unpadded.
func appendScore(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-07 → e-7
		b = b[:n-1]
	}
	return b
}

// appendString writes s as encoding/json writes a string: control
// characters, the quote and backslash escaped, and — because json.Marshal
// escapes HTML by default — '<', '>', '&', U+2028 and U+2029 as \u
// sequences; each byte of invalid UTF-8 becomes \ufffd.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
