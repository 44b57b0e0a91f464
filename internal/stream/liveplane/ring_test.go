package liveplane

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"aovlis"
	"aovlis/internal/ados"
	"aovlis/internal/serve"
	"aovlis/internal/wire"
)

// ringScriptStep is the bytes one line of a FuzzRingReplay script takes:
// kind and seq gap, flags and path, score kind, then the score's bits.
const ringScriptStep = 3 + 8

// ringStep is one line of a ring script, the way serve.Pump decides it.
type ringStep struct {
	kind, gap, flags, path, score byte
	bits                          uint64
}

// bytes encodes the step as FuzzRingReplay reads it.
func (s ringStep) bytes() []byte {
	b := []byte{s.kind<<4 | s.gap, s.flags | s.path<<3, s.score}
	return binary.LittleEndian.AppendUint64(b, s.bits)
}

// ringScriptSeeds are FuzzRingReplay's seeds: between them a warm-up
// verdict, each ados path, a scorer's own path, NaN, +Inf, −Inf, the
// lines that carry no verdict and the wseq gaps an NDJSON stream on the
// same channel leaves.
func ringScriptSeeds() [][]byte {
	var all []ringStep
	all = append(all, ringStep{flags: 1}) // warm-up
	for p := byte(1); p <= byte(ados.PathTierSkip)+1; p++ {
		all = append(all, ringStep{flags: 2 | 4, path: p, bits: math.Float64bits(0.25 * float64(p))})
	}
	all = append(all,
		ringStep{flags: 4, path: byte(ados.PathTierSkip) + 2, bits: math.Float64bits(1e-300)}, // the scorer's own path
		ringStep{gap: 3, flags: 2 | 4, path: 4, score: 1},                                     // NaN after a gap
		ringStep{flags: 2, path: 4, score: 2},                                                 // +Inf
		ringStep{gap: 1, flags: 4, path: 2, score: 3},                                         // −Inf
		ringStep{kind: 2},         // a line that did not parse
		ringStep{kind: 3},         // a rejection
		ringStep{kind: 4, gap: 2}, // a detector error
		ringStep{gap: 2, flags: 4, path: 3, bits: math.Float64bits(7)},
	)
	var seeds [][]byte
	for _, steps := range [][]ringStep{all, all[:3], all[len(all)-6:]} {
		var b []byte
		for _, s := range steps {
			b = append(b, s.bytes()...)
		}
		seeds = append(seeds, b)
	}
	return seeds
}

// FuzzRingReplay feeds a session the lines of a script through the live
// plane's Seal and checks that Replay, from any cursor, gives exactly the
// verdict lines Seal sent — the newest capacity of them above the cursor,
// byte for byte — and nothing for the lines that carry no verdict.
func FuzzRingReplay(f *testing.F) {
	for i, s := range ringScriptSeeds() {
		f.Add(s, uint8(4+i*8), "own-path", uint64(i))
	}
	f.Fuzz(func(t *testing.T, script []byte, capacity uint8, own string, after uint64) {
		if len(script) > 512*ringScriptStep {
			return // bound the script, not coverage
		}
		h := NewHub()
		defer h.Close()
		h.ringCap = 1 + int(capacity%64)
		s, err := h.Acquire("ch")
		if err != nil {
			t.Fatal(err)
		}
		paths := append(append([]string{}, h.paths...), own)
		type sent struct {
			seq  uint64
			line string
		}
		var (
			verdicts []sent
			wseq     uint64
			line     []byte
		)
		for ; len(script) >= ringScriptStep; script = script[ringScriptStep:] {
			st := ringStep{kind: script[0] >> 4, gap: script[0] & 15, flags: script[1] & 7,
				path: script[1] >> 3, score: script[2], bits: binary.LittleEndian.Uint64(script[3:])}
			d := wire.Decision{Channel: "ch"}
			switch st.kind % 5 {
			case 2:
				d.Error = "bad observation line: unexpected end"
			case 3:
				d.Rejected = true
			case 4:
				wseq += 1 + uint64(st.gap)
				d.WSeq, d.Error = wseq, "aovlis: feature dims 3/1, detector expects 48/19"
			default:
				wseq += 1 + uint64(st.gap)
				d.WSeq = wseq
				score := [...]float64{math.Float64frombits(st.bits), math.NaN(), math.Inf(1), math.Inf(-1)}[st.score%4]
				serve.SetResult(&d, aovlis.Result{Warmup: st.flags&1 != 0, Anomaly: st.flags&2 != 0,
					Exact: st.flags&4 != 0, Path: paths[int(st.path)%len(paths)], Score: score})
			}
			if line, err = s.seal(line[:0], &d); err != nil {
				t.Fatalf("seal %+v: %v", d, err)
			}
			if d.Verdict() {
				verdicts = append(verdicts, sent{d.Seq, string(line[:len(line)-1])})
			} else if d.Seq != 0 {
				t.Fatalf("a line without a verdict went out with seq %d", d.Seq)
			}
		}
		for _, from := range []uint64{0, after % (wseq + 2)} {
			var want []string
			for _, v := range verdicts[max(len(verdicts)-h.ringCap, 0):] {
				if v.seq > from {
					want = append(want, v.line)
				}
			}
			var got []string
			if err := s.Replay(from, func(seq uint64, l []byte) error {
				got = append(got, string(l))
				if !bytes.Contains(l, fmt.Appendf(nil, `"seq":%d,`, seq)) {
					t.Errorf("replayed seq %d on line %s", seq, l)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("replay after %d:\n got  %q\n sent %q", from, got, want)
			}
		}
	})
}
