package liveplane

import (
	"encoding/binary"
	"math/rand"
)

// Frame is one wire-level RFC 6455 frame. The codec's own writes go
// through it, and the conformance harness uses it directly to produce
// fragmented, interleaved and malformed byte streams deterministically.
type Frame struct {
	Fin     bool
	RSV     byte // high three bits of byte 0; nonzero is a protocol error
	Op      Opcode
	Masked  bool
	MaskKey [4]byte
	Payload []byte
}

// Append encodes the frame onto dst and returns the extended slice. The
// payload is masked into the output (Payload itself is left untouched).
func (f Frame) Append(dst []byte) []byte {
	b0 := byte(f.Op) & 0x0f
	if f.Fin {
		b0 |= 0x80
	}
	b0 |= (f.RSV & 0x07) << 4
	dst = append(dst, b0)
	maskBit := byte(0)
	if f.Masked {
		maskBit = 0x80
	}
	n := len(f.Payload)
	switch {
	case n <= 125:
		dst = append(dst, maskBit|byte(n))
	case n <= 0xffff:
		dst = append(dst, maskBit|126)
		var ext [2]byte
		binary.BigEndian.PutUint16(ext[:], uint16(n))
		dst = append(dst, ext[:]...)
	default:
		dst = append(dst, maskBit|127)
		var ext [8]byte
		binary.BigEndian.PutUint64(ext[:], uint64(n))
		dst = append(dst, ext[:]...)
	}
	if f.Masked {
		dst = append(dst, f.MaskKey[:]...)
		start := len(dst)
		dst = append(dst, f.Payload...)
		maskBytes(dst[start:], f.MaskKey)
		return dst
	}
	return append(dst, f.Payload...)
}

// Scrambler is the seeded frame generator behind the protocol conformance
// suite: it turns each message into a hostile-but-legal byte stream —
// split into a random number of continuation fragments, with ping frames
// interleaved between them, delivered in write chunks that tear frame
// boundaries apart. Everything derives from the seed, so a failing
// schedule replays bit-identically.
type Scrambler struct {
	rng *rand.Rand
	// MaxFragments bounds the fragment count per message (default 4).
	MaxFragments int
	// PingEvery interleaves a ping between fragments with probability
	// 1/PingEvery (default 3; 0 disables).
	PingEvery int
}

// NewScrambler seeds a generator.
func NewScrambler(seed int64) *Scrambler {
	return &Scrambler{rng: rand.New(rand.NewSource(seed)), MaxFragments: 4, PingEvery: 3}
}

func (s *Scrambler) mask() [4]byte {
	var k [4]byte
	binary.LittleEndian.PutUint32(k[:], s.rng.Uint32())
	return k
}

// Frames renders one client message as a masked fragment train with
// interleaved pings.
func (s *Scrambler) Frames(op Opcode, payload []byte) []Frame {
	nfrag := 1
	if s.MaxFragments > 1 && len(payload) > 1 {
		nfrag = 1 + s.rng.Intn(s.MaxFragments)
	}
	// Draw nfrag-1 split points; duplicates just mean empty fragments,
	// which are legal.
	cuts := make([]int, 0, nfrag+1)
	cuts = append(cuts, 0)
	for i := 0; i < nfrag-1; i++ {
		cuts = append(cuts, s.rng.Intn(len(payload)+1))
	}
	cuts = append(cuts, len(payload))
	sortInts(cuts)

	var out []Frame
	for i := 0; i+1 < len(cuts); i++ {
		f := Frame{
			Op:      OpContinuation,
			Fin:     i+2 == len(cuts),
			Masked:  true,
			MaskKey: s.mask(),
			Payload: payload[cuts[i]:cuts[i+1]],
		}
		if i == 0 {
			f.Op = op
		}
		out = append(out, f)
		if !f.Fin && s.PingEvery > 0 && s.rng.Intn(s.PingEvery) == 0 {
			out = append(out, Frame{Fin: true, Op: OpPing, Masked: true,
				MaskKey: s.mask(), Payload: []byte("mid-message")})
		}
	}
	return out
}

// Chunks splits an encoded byte stream at seeded boundaries — the torn
// writes a slow or bursty client produces. Every chunk is non-empty and
// the concatenation is the input.
func (s *Scrambler) Chunks(b []byte) [][]byte {
	var out [][]byte
	for len(b) > 0 {
		n := 1 + s.rng.Intn(len(b))
		out = append(out, b[:n])
		b = b[n:]
	}
	return out
}

// WriteScrambled sends one message through conn as scrambled frames and
// torn raw writes.
func (s *Scrambler) WriteScrambled(conn *Conn, op Opcode, payload []byte) error {
	var raw []byte
	for _, f := range s.Frames(op, payload) {
		raw = f.Append(raw)
	}
	for _, chunk := range s.Chunks(raw) {
		if err := conn.WriteRaw(chunk); err != nil {
			return err
		}
	}
	return nil
}

// sortInts is a tiny insertion sort — cut lists are ≤ MaxFragments+1
// long, not worth pulling sort in for.
func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
