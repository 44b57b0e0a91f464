package wire

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/netip"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// jsonStrings are strings that take every branch of the string escaper.
var jsonStrings = []string{
	"", "plain", `quote " and \ backslash`, "<script>&amp;</script>", "tab\tnl\ncr\rbs\bff\f",
	"\x00\x01\x1f\x7f", "caf\u00e9 \u2028 \u2029 \U0001f600", "bad \xff utf-8 \xe2\x80", "\xed\xa0\x80",
}

// TestJSONWriterMatchesEncodingJSON pins the writer to json.Marshal and
// json.MarshalIndent(v, "", "  ") over scalars, escapes, floats in both
// formats, empty and nested containers, and raw values at every depth.
func TestJSONWriterMatchesEncodingJSON(t *testing.T) {
	floats := []float64{0, math.Copysign(0, -1), 1, -2.5, 1e-6, 9.99e-7, 1e-7, 1e20, 1e21, 123456789012345678901,
		math.MaxFloat64, math.SmallestNonzeroFloat64, 1.0 / 3, -1e-300}
	raws := []string{`null`, `1`, `-0.5e-7`, `"s<&>\u00e9"`, `{}`, `[]`, `[ ]`, ` { "a" : [ 1 , { } , [ [ ] ] , "x\"y" ] , "b" : { "c" : null } } `,
		"\"\u2028\u2029\"", `[{"k":{"k":{"k":[1,2,[3]]}}}]`, `"\\\/"`}
	type doc = map[string]any
	value := doc{
		"strings": jsonStrings,
		"floats":  floats,
		"ints":    []int64{0, -1, math.MinInt64, math.MaxInt64},
		"uint":    uint64(math.MaxUint64),
		"bools":   []bool{true, false},
		"null":    nil,
		"empty":   doc{},
		"none":    []any{},
		"nested":  doc{"a": doc{"b": []any{doc{}, []any{}, doc{"c": 1}}}},
	}
	var raw []json.RawMessage
	for _, r := range raws {
		raw = append(raw, json.RawMessage(r))
	}
	value["raw"] = raw
	for _, indent := range []bool{false, true} {
		var want []byte
		var err error
		if indent {
			want, err = json.MarshalIndent(value, "", "  ")
		} else {
			want, err = json.Marshal(value)
		}
		if err != nil {
			t.Fatal(err)
		}
		j := JSON{Indent: indent}
		j.Object()
		j.Key("bools").Array().Bool(true).Bool(false).EndArray()
		j.Key("empty").Object().EndObject()
		j.Key("floats").Array()
		for _, f := range floats {
			j.Float(f)
		}
		j.EndArray()
		j.Key("ints").Array().Int(0).Int(-1).Int(math.MinInt64).Int(math.MaxInt64).EndArray()
		j.Key("nested").Object().Key("a").Object().Key("b").Array().Object().EndObject().Array().EndArray().
			Object().Key("c").Int(1).EndObject().EndArray().EndObject().EndObject()
		j.Key("none").Array().EndArray()
		j.Key("null").Null()
		j.Key("raw").Array()
		for _, r := range raws {
			j.Raw([]byte(r))
		}
		j.EndArray()
		j.Key("strings").Array()
		for _, s := range jsonStrings {
			j.String(s)
		}
		j.EndArray()
		j.Key("uint").Uint(math.MaxUint64)
		j.EndObject()
		if j.Err() != nil || string(j.B) != string(want) {
			t.Fatalf("indent=%v (%v):\n got %s\nwant %s", indent, j.Err(), j.B, want)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		var j JSON
		j.Object().Key("x").Float(f).EndObject()
		_, want := json.Marshal(f)
		if j.Err() == nil || j.Err().Error() != want.Error() {
			t.Errorf("Float(%v): err %v, encoding/json %v", f, j.Err(), want)
		}
	}
}

// FuzzJSONWriter holds the string escaper and the raw-value re-indenter to
// encoding/json: a string as json.Marshal writes it, and a valid document
// as a json.RawMessage member writes it compact and indented.
func FuzzJSONWriter(f *testing.F) {
	for _, s := range append(jsonStrings, `{"a":[1,{"b":"<\u2028>"}],"c":{}}`, ` [ 1 , "x" ] `) {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		want, _ := json.Marshal(string(b))
		if got := appendString(nil, string(b)); !bytes.Equal(got, want) {
			t.Fatalf("appendString(%q) = %s, encoding/json %s", b, got, want)
		}
		if !json.Valid(b) {
			return
		}
		v := map[string]any{"k": []any{json.RawMessage(b)}}
		for _, indent := range []bool{false, true} {
			var want []byte
			if indent {
				want, _ = json.MarshalIndent(v, "", "  ")
			} else {
				want, _ = json.Marshal(v)
			}
			j := JSON{Indent: indent}
			j.Object().Key("k").Array().Raw(b).EndArray().EndObject()
			if !bytes.Equal(j.B, want) {
				t.Fatalf("Raw(%q) indent=%v:\n got %s\nwant %s", b, indent, j.B, want)
			}
		}
	})
}

// TestJSONReaderErrors holds the reader to encoding/json on each kind of
// syntax error, truncation, nesting depth and type error: the same lines
// accepted with the same vectors, and each refusal a JSONError that names
// the byte it stopped at.
func TestJSONReaderErrors(t *testing.T) {
	lines := []string{
		``, ` `, `x`, `{`, `{"action"`, `{"action":`, `{"action":[1`, `{"action":[1,`, `{"action":[1 2]}`,
		`{"action" 1}`, `{"action":[1] "x":1}`, `{1:2}`, `{"a":1}x`, `{"a":1} x`, `"abc`, `"\`, `"\q"`, `"\u12`, `"\u12x4"`,
		"\"a\x01\"", `-`, `-x`, `1.`, `1.x`, `1e`, `1e+`, `1ex`, `01`, `t`, `tr`, `tru`, `trUe`, `f`, `fals`, `nul`, `nulL`,
		`'`, `"`, "\xff", `[1,]`, `{"a":1,}`,
		strings.Repeat("[", 10000) + strings.Repeat("]", 10000), strings.Repeat("[", 10001) + strings.Repeat("]", 10001),
		`[]`, `"x"`, `1`, `true`, `null`, `{"action":"x"}`, `{"action":[true]}`, `{"action":[{}]}`, `{"action":[[1]]}`,
		`{"action":[1e999]}`, `{"audience":{}}`, `{"action":1,"audience":"s"}`, `{"action":[null,"x"]}`,
		`{"action":[1,2],"AUDIENCE":[3],"x":{}}`,
	}
	for _, line := range lines {
		var ref Observation
		refErr := json.Unmarshal([]byte(line), &ref)
		var o Observation
		err := DecodeObservation([]byte(line), &o)
		switch {
		case (err == nil) != (refErr == nil):
			t.Errorf("%.40q: err %v, encoding/json %v", line, err, refErr)
		case err == nil:
			if !sameVector(o.Action, ref.Action) || !sameVector(o.Audience, ref.Audience) {
				t.Errorf("%.40q: read %+v, encoding/json %+v", line, o, ref)
			}
		case !strings.HasPrefix(err.Error(), "bad observation line: "):
			t.Errorf("%.40q: %v lost its prefix", line, err)
		default:
			refusedAt(t, []byte(line), err, refErr)
		}
	}
	// A value that does not fit is refused where it begins; the first
	// one counts.
	for line, off := range map[string]int{
		`{"action":"x"}`: 10, `{"action":[true]}`: 11, `{"action":[1e999]}`: 11, `{"audience":{}}`: 12,
		`{"action":1,"audience":"s"}`: 10, `{"action":[null,"x"]}`: 16,
	} {
		var je *JSONError
		if err := DecodeObservation([]byte(line), new(Observation)); !errors.As(err, &je) || je.Offset != off {
			t.Errorf("%q: %v, want a refusal at byte %d", line, err, off)
		}
	}
}

// refusedAt fails unless err, a refusal of in, holds a JSONError at a byte
// of in and names it. Where encoding/json's refusal ref is a syntax error,
// the byte is the one it stopped at: its Offset counts that byte, or is
// the end of in when in ended too soon.
func refusedAt(t *testing.T, in []byte, err, ref error) {
	t.Helper()
	var je *JSONError
	if !errors.As(err, &je) || je.Offset < 0 || je.Offset > len(in) || !strings.Contains(err.Error(), "byte "+strconv.Itoa(je.Offset)) {
		t.Errorf("%.40q: refused with %v, which names no byte of it", in, err)
		return
	}
	var se *json.SyntaxError
	if errors.As(ref, &se) && je.Offset != int(se.Offset)-1 && (je.Offset != len(in) || int(se.Offset) != len(in)) {
		t.Errorf("%.40q: refused at byte %d, encoding/json at offset %d (%v)", in, je.Offset, se.Offset, ref)
	}
}

// FuzzParseAddr holds ParseIP to netip.ParseAddr: the same literals
// accepted, and for each the same 16 bytes, zone, form, String and
// unmapped String.
func FuzzParseAddr(f *testing.F) {
	for _, s := range []string{
		"127.0.0.1", "0.0.0.0", "255.255.255.255", "256.1.1.1", "1.2.3", "1.2.3.4.5", "01.2.3.4", "1..2.3", "1.2.3.4%eth0",
		"::", "::1", "1::", "fe80::1%eth0", "fe80::1%", "fe80::1%25", "::ffff:1.2.3.4", "::ffff:1.2.3.4%1", "1:2:3:4:5:6:7:8",
		"1:2:3:4:5:6:7:8:9", "1:2:3:4:5:6:7::", "::1:2:3:4:5:6:7", "1:2:3:4:5:6:1.2.3.4", "1::2::3", "12345::", "1:0:0:2:0:0:0:3",
		"2001:db8::68", "::ffff:0:0", "0:0:0:0:0:ffff:7f00:1", ":1", "1:", "%eth0", "", "x", "1.2.3.4:80", "[::1]", "::1.2.3.4",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		ref, refErr := netip.ParseAddr(s)
		ip, err := ParseIP(s)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("ParseIP(%q) err %v, netip %v", s, err, refErr)
		}
		if err != nil {
			return
		}
		if ip.As16() != ref.As16() || ip.Zone() != ref.Zone() || ip.Is4() != ref.Is4() ||
			ip.String() != ref.String() || ip.Unmap().String() != ref.Unmap().String() {
			t.Fatalf("ParseIP(%q) = %v %q %v %s/%s, netip %v %q %v %s/%s", s, ip.As16(), ip.Zone(), ip.Is4(), ip, ip.Unmap(),
				ref.As16(), ref.Zone(), ref.Is4(), ref, ref.Unmap())
		}
	})
}

// TestSockaddrStringMatchesNetip pins sockaddrString to the netip form it
// had: IPv4 dotted, an IPv4-mapped peer unmapped, IPv6 in brackets with a
// numeric zone.
func TestSockaddrStringMatchesNetip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20000; i++ {
		var a [16]byte
		rng.Read(a[:])
		switch i % 4 {
		case 0:
			a = [16]byte{10: 0xff, 11: 0xff, 12: a[12], 13: a[13], 14: a[14], 15: a[15]}
		case 1:
			for k := rng.Intn(16); k < 16 && k < 4+rng.Intn(16); k++ {
				a[k] = 0
			}
		}
		port, zone := rng.Intn(65536), uint32(0)
		if i%3 == 0 {
			zone = rng.Uint32()
		}
		ref := netip.AddrFrom16(a).Unmap()
		if zone != 0 {
			ref = ref.WithZone(strconv.FormatUint(uint64(zone), 10))
		}
		want := netip.AddrPortFrom(ref, uint16(port)).String()
		if got := sockaddrString(&syscall.SockaddrInet6{Port: port, ZoneId: zone, Addr: a}); got != want {
			t.Fatalf("%v zone %d: %s, want %s", a, zone, got, want)
		}
		v4 := [4]byte(a[12:])
		want = netip.AddrPortFrom(netip.AddrFrom4(v4), uint16(port)).String()
		if got := sockaddrString(&syscall.SockaddrInet4{Port: port, Addr: v4}); got != want {
			t.Fatalf("%v: %s, want %s", v4, got, want)
		}
	}
}

// cannedConn answers every request with one fixed response.
type cannedConn struct{ r *strings.Reader }

func (c *cannedConn) Read(p []byte) (int, error)       { return c.r.Read(p) }
func (c *cannedConn) Write(p []byte) (int, error)      { return len(p), nil }
func (c *cannedConn) Close() error                     { return nil }
func (c *cannedConn) SetDeadline(time.Time) error      { return nil }
func (c *cannedConn) SetReadDeadline(time.Time) error  { return nil }
func (c *cannedConn) SetWriteDeadline(time.Time) error { return nil }

// TestDoRecyclesResponseReader: a warm Do allocates fewer bytes than one
// response reader, because the reader a closed response body held is the
// next call's. The peer is in memory, so every byte counted is the
// client's.
func TestDoRecyclesResponseReader(t *testing.T) {
	const answer = "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 16\r\n\r\n{\"status\":\"ok\"}\n"
	dial := func(context.Context, string, string) (Conn, error) {
		return &cannedConn{strings.NewReader(answer)}, nil
	}
	req, err := NewRequest(MethodGet, "http://127.0.0.1:1/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	var body [64]byte
	do := func() {
		resp, err := Do(context.Background(), dial, req)
		if err != nil {
			t.Fatal(err)
		}
		n, _ := io.ReadFull(resp.Body, body[:16])
		resp.Body.Close()
		if resp.StatusCode != 200 || string(body[:n]) != `{"status":"ok"}`+"\n" {
			t.Fatalf("%d %q", resp.StatusCode, body[:n])
		}
	}
	for i := 0; i < 10; i++ {
		do()
	}
	const calls = 200
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		do()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / calls; per >= streamReadBuf {
		t.Fatalf("a warm Do allocates %d bytes, not less than one %d-byte response reader", per, streamReadBuf)
	}
	if _, err := (&doBody{closed: true}).Read(body[:]); err != errBodyClosed {
		t.Fatalf("read after Close: %v", err)
	}
}

// TestWriteJSON: a document is answered whole, with its newline, as
// application/json; one holding a value JSON cannot carry is answered 500
// naming it, with nothing of it sent — where the router used to send 200
// and an empty body.
func TestWriteJSON(t *testing.T) {
	srv := testServer(t, func(w ResponseWriter, r *Request) {
		WriteJSON(w, func(j *JSON) {
			j.Object().Key("ok").Bool(true)
			if r.URL.Path == "/nan" {
				j.Key("ratio").Float(math.NaN())
			}
			j.EndObject()
		})
	})
	for path, want := range map[string]string{
		"/":    "200 application/json {\n  \"ok\": true\n}\n",
		"/nan": "500 text/plain; charset=utf-8 encoding response: json: unsupported value: NaN\n",
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if got := fmt.Sprintf("%d %s %s", resp.StatusCode, resp.Header.Get("Content-Type"), b); got != want {
			t.Errorf("%s: %q, want %q", path, got, want)
		}
	}
}

func ExampleJSON() {
	j := JSON{Indent: true}
	j.Object().Key("channel").String("a<b").Key("scores").Array().Float(0.5).Float(1e-7).EndArray().EndObject()
	fmt.Println(string(j.B))
	// Output:
	// {
	//   "channel": "a\u003cb",
	//   "scores": [
	//     0.5,
	//     1e-7
	//   ]
	// }
}
