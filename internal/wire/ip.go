package wire

import (
	"errors"
	"strconv"
	"strings"
)

// IP is an IPv4 or IPv6 address literal, as net/netip parses and prints
// it: 16 bytes (an IPv4 address as its IPv4-mapped form), whether it was
// written as IPv4, and an IPv6 zone.
type IP struct {
	addr [16]byte
	is4  bool
	zone string
}

var errIP = errors.New("not an IP address literal")

// ParseIP parses what netip.ParseAddr accepts: dotted-quad IPv4 without
// leading zeros, or IPv6 with at most one "::", an optional embedded IPv4
// tail and an optional non-empty "%zone".
func ParseIP(s string) (IP, error) {
	i := strings.IndexAny(s, ".:%")
	switch {
	case i < 0 || s[i] == '%':
		return IP{}, errIP
	case s[i] == '.':
		var ip IP
		ip.is4 = true
		ip.addr[10], ip.addr[11] = 0xff, 0xff
		if !parseIPv4(s, ip.addr[12:]) {
			return IP{}, errIP
		}
		return ip, nil
	}
	return parseIPv6(s)
}

// parseIPv4 parses the four decimal fields of s into dst.
func parseIPv4(s string, dst []byte) bool {
	f := strings.Split(s, ".")
	if len(f) != 4 {
		return false
	}
	for k, d := range f {
		if d == "" || len(d) > 3 || len(d) > 1 && d[0] == '0' || strings.Trim(d, "0123456789") != "" {
			return false
		}
		v, _ := strconv.Atoi(d)
		if v > 255 {
			return false
		}
		dst[k] = byte(v)
	}
	return true
}

func parseIPv6(s string) (IP, error) {
	ip := IP{}
	if i := strings.IndexByte(s, '%'); i >= 0 {
		if s, ip.zone = s[:i], s[i+1:]; ip.zone == "" {
			return IP{}, errIP
		}
	}
	ellipsis := -1 // where "::" stands, in bytes of addr
	if strings.HasPrefix(s, "::") {
		ellipsis, s = 0, s[2:]
	}
	i := 0
	for i < 16 && s != "" {
		n := 0
		for n < len(s) && isHex(s[n]) {
			n++
		}
		switch {
		case n == 0 || n > 4:
			return IP{}, errIP
		case n < len(s) && s[n] == '.':
			if ellipsis < 0 && i != 12 || i+4 > 16 || !parseIPv4(s, ip.addr[i:i+4]) {
				return IP{}, errIP
			}
			i, s = i+4, ""
			continue
		}
		v, _ := strconv.ParseUint(s[:n], 16, 16)
		ip.addr[i], ip.addr[i+1] = byte(v>>8), byte(v)
		i, s = i+2, s[n:]
		if s == "" {
			break
		}
		if s[0] != ':' || len(s) == 1 {
			return IP{}, errIP
		}
		if s = s[1:]; s[0] == ':' {
			if ellipsis >= 0 {
				return IP{}, errIP
			}
			ellipsis, s = i, s[1:]
		}
	}
	switch {
	case s != "":
		return IP{}, errIP
	case i < 16 && ellipsis < 0, i == 16 && ellipsis >= 0:
		return IP{}, errIP
	case i < 16:
		n := 16 - i
		copy(ip.addr[ellipsis+n:], ip.addr[ellipsis:i])
		clear(ip.addr[ellipsis : ellipsis+n])
	}
	return ip, nil
}

// Is4 reports whether ip was written as IPv4.
func (ip IP) Is4() bool { return ip.is4 }

// As16 is ip's 16 bytes.
func (ip IP) As16() [16]byte { return ip.addr }

// Zone is ip's IPv6 zone, "" when it has none.
func (ip IP) Zone() string { return ip.zone }

// is4In6 reports whether ip is an IPv6 address of the IPv4-mapped form.
func (ip IP) is4In6() bool {
	return !ip.is4 && [12]byte(ip.addr[:12]) == [12]byte{10: 0xff, 11: 0xff}
}

// Unmap is ip with an IPv4-mapped IPv6 address turned into IPv4 (and its
// zone dropped), as netip's Unmap does.
func (ip IP) Unmap() IP {
	if ip.is4In6() {
		ip.is4, ip.zone = true, ""
	}
	return ip
}

// String is ip as netip prints it: dotted quad, or RFC 5952 IPv6 (the
// longest run of two or more zero groups, the first on a tie, as "::";
// an IPv4-mapped address with a dotted tail), then "%zone".
func (ip IP) String() string {
	if ip.is4 {
		return string(appendIPv4(nil, ip.addr[12:]))
	}
	var b []byte
	if ip.is4In6() {
		b = appendIPv4(append(b, "::ffff:"...), ip.addr[12:])
	} else {
		group := func(k int) uint64 { return uint64(ip.addr[2*k])<<8 | uint64(ip.addr[2*k+1]) }
		zs, ze := -1, -1
		for k := 0; k < 8; k++ {
			e := k
			for e < 8 && group(e) == 0 {
				e++
			}
			if e-k >= 2 && e-k > ze-zs {
				zs, ze = k, e
			}
		}
		for k := 0; k < 8; k++ {
			if k == zs {
				b = append(b, ':', ':')
				if k = ze; k >= 8 {
					break
				}
			} else if k > 0 {
				b = append(b, ':')
			}
			b = strconv.AppendUint(b, group(k), 16)
		}
	}
	if ip.zone != "" {
		b = append(append(b, '%'), ip.zone...)
	}
	return string(b)
}

func appendIPv4(b []byte, v4 []byte) []byte {
	for k, v := range v4 {
		if k > 0 {
			b = append(b, '.')
		}
		b = strconv.AppendUint(b, uint64(v), 10)
	}
	return b
}
