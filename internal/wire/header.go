package wire

import (
	"bufio"
	"bytes"
	"strings"
)

// Header field syntax, as net/textproto reads and files it: the head
// parsers read lines and header fields with readLine and readHeader, and a
// Header files every key under CanonicalHeaderKey. FuzzReadRequestHead
// holds the parsers to net/http's, and FuzzCanonicalHeaderKey the key
// canonicalisation to textproto.CanonicalMIMEHeaderKey.

// LastSeqHeader carries a live client's replay cursor on its upgrade
// request: the node's live plane reads it, and the router forwards it.
const LastSeqHeader = "Last-Seq"

// CanonicalHeaderKey is the canonical form of a header key: the first
// letter and every letter after a hyphen upper case, the rest lower case
// ("accept-encoding" is "Accept-Encoding"). A key with a byte that is not
// a token character, a space included, is returned as it is.
func CanonicalHeaderKey(s string) string {
	upper := true
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !validHeaderFieldByte(c) {
			return s
		}
		if upper && 'a' <= c && c <= 'z' || !upper && 'A' <= c && c <= 'Z' {
			s, _ = canonicalKey([]byte(s))
			return s
		}
		upper = c == '-'
	}
	return s
}

// canonicalKey canonicalises a, in place, and reports whether it is a
// valid key: token characters, or token characters and spaces, which are
// accepted but not canonicalised.
func canonicalKey(a []byte) (string, bool) {
	if len(a) == 0 {
		return "", false
	}
	spaced := false
	for _, c := range a {
		switch {
		case validHeaderFieldByte(c):
		case c == ' ':
			spaced = true
		default:
			return string(a), false
		}
	}
	if spaced {
		return string(a), true
	}
	upper := true
	for i, c := range a {
		if upper && 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		} else if !upper && 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		a[i] = c
		upper = c == '-'
	}
	return string(a), true
}

// validHeaderFieldByte reports whether c is an RFC 9110 tchar.
func validHeaderFieldByte(c byte) bool {
	return c < 0x80 && tchar[c]
}

var tchar = func() (t [0x80]bool) {
	for c := '0'; c <= '9'; c++ {
		t[c] = true
	}
	for c := 'a'; c <= 'z'; c++ {
		t[c], t[c-'a'+'A'] = true, true
	}
	for _, c := range "!#$%&'*+-.^_`|~" {
		t[c] = true
	}
	return t
}()

// validHeaderValueByte reports whether c may appear in a field value:
// anything but a control character other than a tab.
func validHeaderValueByte(c byte) bool {
	return c >= 0x20 && c != 0x7f || c == '\t'
}

// trimString trims ASCII white space, line ends included, off both ends,
// as textproto.TrimString does.
func trimString(s string) string { return strings.Trim(s, " \t\r\n") }

// readLine reads one line off br without its "\n" or "\r\n". The line is
// br's buffer when it fits, valid until br's next read.
func readLine(br *bufio.Reader) ([]byte, error) {
	var line []byte
	for {
		l, more, err := br.ReadLine()
		if err != nil {
			return nil, err
		}
		if line == nil && !more {
			return l, nil
		}
		line = append(line, l...)
		if !more {
			return line, nil
		}
	}
}

// readHeader reads header fields off br up to and including the blank
// line that ends them. A line that starts with a space or a tab continues
// the field before it (obsolete folding), joined to it by one space.
func readHeader(br *bufio.Reader) (Header, error) {
	h := make(Header)
	if b, err := br.Peek(1); err == nil && (b[0] == ' ' || b[0] == '\t') {
		line, _ := readLine(br)
		return h, &headError{"malformed header initial line", string(line)}
	}
	var buf []byte
	for {
		kv, err := readField(br, &buf)
		if len(kv) == 0 {
			return h, err
		}
		k, v, _ := bytes.Cut(kv, []byte(":"))
		key, ok := canonicalKey(k)
		if !ok {
			return h, &headError{"malformed header line", string(kv)}
		}
		for _, c := range v {
			if !validHeaderValueByte(c) {
				return h, &headError{"malformed header line", string(kv)}
			}
		}
		h[key] = append(h[key], string(bytes.TrimLeft(v, " \t")))
	}
}

// readField reads one header field with its continuation lines into *buf,
// each trimmed of spaces and tabs; an empty result is the blank line. A
// field's first line must hold its colon.
func readField(br *bufio.Reader, buf *[]byte) ([]byte, error) {
	line, err := readLine(br)
	if err != nil || len(line) == 0 {
		return line, err
	}
	if bytes.IndexByte(line, ':') < 0 {
		return nil, &headError{"malformed header: missing colon", string(line)}
	}
	*buf = append((*buf)[:0], bytes.Trim(line, " \t")...)
	for skipBlank(br) > 0 {
		*buf = append(*buf, ' ')
		line, err := readLine(br)
		if err != nil {
			break
		}
		*buf = append(*buf, bytes.Trim(line, " \t")...)
	}
	return *buf, nil
}

// skipBlank reads past spaces and tabs and returns how many it read.
func skipBlank(br *bufio.Reader) int {
	n := 0
	for {
		c, err := br.ReadByte()
		if err != nil {
			return n
		}
		if c != ' ' && c != '\t' {
			br.UnreadByte()
			return n
		}
		n++
	}
}
