package liveplane

import "encoding/binary"

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
