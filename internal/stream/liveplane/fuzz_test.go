package liveplane

// Native fuzz target for the WebSocket frame reader: ReadMessage parses
// bytes straight off an untrusted socket, so any stream must end in a clean
// error — never a panic, never a message past MaxMessage — and a stream the
// Scrambler built from known messages must read back exactly those
// messages, in order, whatever hostile bytes follow them. Seed corpus lives
// under testdata/fuzz/ (plus the f.Add seeds below); CI runs a fixed-budget
// smoke on every push.

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"aovlis/internal/wire"
)

var updateFuzzCorpus = flag.Bool("update-fuzz-corpus", false, "regenerate the testdata/fuzz seed corpus files")

// fuzzMaxMessage is the reader's limit under fuzzing: small, so oversize
// declarations and fragment trains that cross it are cheap to reach.
const fuzzMaxMessage = 512

// streamConn is a wire.Conn whose reads are a fixed sequence of chunks, one
// per Read (the torn deliveries of a bursty client), and whose writes —
// pongs and close frames — are discarded.
type streamConn struct {
	wire.Conn
	chunks [][]byte
}

func (c *streamConn) Read(b []byte) (int, error) {
	if len(c.chunks) == 0 {
		return 0, io.EOF
	}
	n := copy(b, c.chunks[0])
	if c.chunks[0] = c.chunks[0][n:]; len(c.chunks[0]) == 0 {
		c.chunks = c.chunks[1:]
	}
	return n, nil
}

func (*streamConn) Write(b []byte) (int, error) { return len(b), nil }
func (*streamConn) Close() error                { return nil }

// knownMessages splits text into the messages a scrambled stream carries:
// one per line, each cut to the reader's limit.
func knownMessages(text []byte) [][]byte {
	var msgs [][]byte
	for _, m := range bytes.Split(text, []byte{'\n'}) {
		msgs = append(msgs, m[:min(len(m), fuzzMaxMessage)])
	}
	return msgs
}

// hostileTails are raw client byte streams that break the protocol in one
// way each; they follow the known messages in the seeds.
func hostileTails() [][]byte {
	masked := func(f Frame) Frame { f.Masked, f.MaskKey = true, [4]byte{7, 1, 7, 1}; return f }
	frames := func(fs ...Frame) []byte {
		var b []byte
		for _, f := range fs {
			b = masked(f).Append(b)
		}
		return b
	}
	long := bytes.Repeat([]byte("L"), fuzzMaxMessage-10)
	highBit := []byte{0x81, 0x80 | 127}
	highBit = binary.BigEndian.AppendUint64(highBit, 1<<63|5)
	oversize := []byte{0x81, 0x80 | 126}
	oversize = binary.BigEndian.AppendUint16(oversize, fuzzMaxMessage+1)
	return [][]byte{
		nil,
		frames(Frame{Fin: true, RSV: 0x4, Op: OpText, Payload: []byte("rsv")}),
		frames(Frame{Fin: true, Op: Opcode(0x3), Payload: []byte("reserved data")}),
		frames(Frame{Fin: true, Op: Opcode(0xB), Payload: []byte("reserved control")}),
		frames(Frame{Fin: true, Op: OpContinuation, Payload: []byte("no start")}),
		frames(Frame{Op: OpText, Payload: []byte("a")}, Frame{Fin: true, Op: OpText, Payload: []byte("b")}),
		frames(Frame{Op: OpPing, Payload: []byte("fragmented ping")}),
		frames(Frame{Fin: true, Op: OpPing, Payload: bytes.Repeat([]byte("p"), 126)}),
		frames(Frame{Fin: true, Op: OpClose, Payload: []byte{0x03, 0xe8, 'b', 'y', 'e'}}),
		Frame{Fin: true, Op: OpText, Payload: []byte("unmasked")}.Append(nil),
		append(oversize, 1, 2, 3, 4),
		append(highBit, 1, 2, 3, 4),
		// A fragment train that crosses the limit: the continuation declares
		// more than the first fragment left room for.
		append(frames(Frame{Op: OpText, Payload: long}), 0x80, 0x80|20, 1, 2, 3, 4),
		frames(Frame{Fin: true, Op: OpText, Payload: []byte("torn")})[:5],
	}
}

// readMessageSeed is one f.Add argument list.
type readMessageSeed struct {
	seed int64
	text []byte
	tail []byte
}

func readMessageSeeds() []readMessageSeed {
	texts := [][]byte{
		[]byte(`{"action":[0.5,0.5],"audience":[1]}`),
		[]byte("hello\n\nworld\n" + string(bytes.Repeat([]byte("x"), 700))),
		nil,
	}
	var seeds []readMessageSeed
	for i, tail := range hostileTails() {
		seeds = append(seeds, readMessageSeed{seed: int64(i + 1), text: texts[i%len(texts)], tail: tail})
	}
	return seeds
}

// TestMintReadMessageFuzzCorpus regenerates the checked-in seed corpus. Run
// with
//
//	go test ./internal/stream/liveplane -run TestMintReadMessageFuzzCorpus -update-fuzz-corpus
func TestMintReadMessageFuzzCorpus(t *testing.T) {
	if !*updateFuzzCorpus {
		t.Skip("pass -update-fuzz-corpus to regenerate the seed corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzReadMessage")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, s := range readMessageSeeds() {
		body := fmt.Sprintf("go test fuzz v1\nint64(%d)\n[]byte(%q)\n[]byte(%q)\n", s.seed, s.text, s.tail)
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("seed-%02d", i)), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func FuzzReadMessage(f *testing.F) {
	for _, s := range readMessageSeeds() {
		f.Add(s.seed, s.text, s.tail)
	}
	f.Fuzz(func(t *testing.T, seed int64, text, tail []byte) {
		if len(text)+len(tail) > 64<<10 {
			return // bound the stream, not coverage
		}
		// The known messages, scrambled into fragment trains with pings
		// between fragments, then the arbitrary tail; delivered in torn
		// chunks.
		msgs := knownMessages(text)
		sc := NewScrambler(seed)
		var raw []byte
		for i, m := range msgs {
			op := OpText
			if i%2 == 1 {
				op = OpBinary
			}
			for _, fr := range sc.Frames(op, m) {
				raw = fr.Append(raw)
			}
		}
		raw = append(raw, tail...)
		c := NewConn(&streamConn{chunks: sc.Chunks(raw)}, nil, false, fuzzMaxMessage)
		for i := 0; ; i++ {
			op, msg, err := c.ReadMessage()
			if err != nil {
				if i < len(msgs) {
					t.Fatalf("message %d of %d known: %v", i, len(msgs), err)
				}
				return
			}
			if len(msg) > fuzzMaxMessage {
				t.Fatalf("message %d is %d bytes, past the %d limit", i, len(msg), fuzzMaxMessage)
			}
			if i < len(msgs) {
				wantOp := OpText
				if i%2 == 1 {
					wantOp = OpBinary
				}
				if op != wantOp || !bytes.Equal(msg, msgs[i]) {
					t.Fatalf("message %d read back as op %d %q, want op %d %q", i, op, msg, wantOp, msgs[i])
				}
			}
		}
	})
}
