// Package compress provides the large-object compression conversion
// routines (paper §3, §6). The paper evaluates two in-house algorithms: one
// achieving ~30 % compression at a cost of eight instructions per byte, and
// one achieving ~50 % at twenty instructions per byte. The algorithms
// themselves are not described, so this package substitutes two real,
// byte-exact reversible codecs with the same cost profile:
//
//   - Fast: a run-length coder for zero runs (cheap, shallow compression),
//     charged at 8 instructions per byte. Its decoder is run-at-a-time: it
//     copies each literal run with one append and clears each zero run in
//     one memclr rather than looping per byte, so the real cost stays well
//     under the modelled one.
//   - Tight: an LZ77-style coder with a 4 KB window (more work, deeper
//     compression), charged at 20 instructions per byte.
//
// The benchmark's frame generator produces data with a controlled
// compressible fraction so the paper's 30 % and 50 % ratios are reproduced;
// calibration is asserted by tests. Instruction costs are converted to
// virtual time through a CPUModel and charged to the shared vclock, which is
// how "an extra eight instructions per byte transferred" shows up in the
// Figure 2 reproduction.
package compress

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"postlob/internal/vclock"
)

// Codec compresses and decompresses byte blocks.
type Codec interface {
	// Name identifies the codec in catalogs and reports.
	Name() string
	// Compress returns the compressed form of src appended to dst.
	Compress(dst, src []byte) []byte
	// Decompress reverses Compress, appending to dst.
	Decompress(dst, src []byte) ([]byte, error)
	// CostPerByte is the modelled instruction cost per input byte.
	CostPerByte() int
}

// ErrCorrupt reports undecodable compressed data.
var ErrCorrupt = errors.New("compress: corrupt data")

// Lookup returns a built-in codec by name ("fast", "tight"), or nil with
// false for unknown names. The empty name returns (nil, true): no codec.
func Lookup(name string) (Codec, bool) {
	switch name {
	case "":
		return nil, true
	case "fast":
		return Fast{}, true
	case "tight":
		return Tight{}, true
	default:
		return nil, false
	}
}

// CPUModel converts instruction counts to virtual time. The benchmark
// calibrates IPS to the paper's late-80s multiprocessor.
type CPUModel struct {
	// IPS is instructions per second; zero disables charging.
	IPS int64
}

// Cost returns the virtual time to execute n instructions.
func (m CPUModel) Cost(n int64) time.Duration {
	if m.IPS <= 0 || n <= 0 {
		return 0
	}
	return time.Duration(n * int64(time.Second) / m.IPS)
}

// Charge bills the codec's cost for processing n input bytes to clk.
func Charge(clk *vclock.Clock, m CPUModel, c Codec, n int) {
	if c == nil {
		return
	}
	clk.Advance(m.Cost(int64(c.CostPerByte()) * int64(n)))
}

// --- envelope ----------------------------------------------------------------
//
// Encode prefixes compressed data with a one-byte method tag and falls back
// to storing raw bytes when compression would not shrink the block — the
// f-chunk implementation depends on this "no worse than raw" property.

const (
	methodRaw   = 0
	methodFast  = 1
	methodTight = 2
)

func methodFor(c Codec) (byte, error) {
	switch c.(type) {
	case Fast:
		return methodFast, nil
	case Tight:
		return methodTight, nil
	default:
		return 0, fmt.Errorf("compress: unknown codec %q", c.Name())
	}
}

// Encode compresses src with c under a self-describing envelope. With a nil
// codec the data is stored raw.
func Encode(c Codec, src []byte) ([]byte, error) {
	if c == nil {
		out := make([]byte, 1+len(src))
		out[0] = methodRaw
		copy(out[1:], src)
		return out, nil
	}
	m, err := methodFor(c)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 1, 1+len(src))
	out[0] = m
	out = c.Compress(out, src)
	if len(out) >= 1+len(src) {
		out = out[:1]
		out[0] = methodRaw
		out = append(out, src...)
	}
	return out, nil
}

// Decode reverses Encode into a fresh buffer.
func Decode(data []byte) ([]byte, error) { return DecodeInto(nil, data) }

// DecodeInto reverses Encode, appending the decoded bytes to dst: a caller
// that reuses one buffer, or decodes into the spare capacity of its own,
// allocates nothing.
func DecodeInto(dst, data []byte) ([]byte, error) {
	if len(data) < 1 {
		return nil, ErrCorrupt
	}
	switch data[0] {
	case methodRaw:
		return append(dst, data[1:]...), nil
	case methodFast:
		return Fast{}.Decompress(dst, data[1:])
	case methodTight:
		return Tight{}.Decompress(dst, data[1:])
	default:
		return nil, fmt.Errorf("%w: method %d", ErrCorrupt, data[0])
	}
}

// --- Fast: zero-run-length coding ---------------------------------------------

// Fast is the shallow codec: zero runs collapse to two bytes; everything
// else passes through with escape stuffing. Modelled at 8 instructions per
// byte, like the paper's 30 % algorithm.
type Fast struct{}

// fastEsc introduces either an escaped literal (next byte 0) or a zero run
// (next byte = run length 1..255).
const fastEsc = 0xF7

// Name implements Codec.
func (Fast) Name() string { return "fast" }

// CostPerByte implements Codec.
func (Fast) CostPerByte() int { return 8 }

// Compress implements Codec.
func (Fast) Compress(dst, src []byte) []byte {
	i := 0
	for i < len(src) {
		b := src[i]
		switch {
		case b == 0:
			run := 1
			for i+run < len(src) && src[i+run] == 0 && run < 255 {
				run++
			}
			dst = append(dst, fastEsc, byte(run))
			i += run
		case b == fastEsc:
			dst = append(dst, fastEsc, 0)
			i++
		default:
			dst = append(dst, b)
			i++
		}
	}
	return dst
}

// Decompress implements Codec. It works a run at a time: the vectorised
// IndexByte finds the next escape, the literal run before it is one append,
// and a zero run is one grow-and-clear (a memclr, no allocation beyond
// growing dst).
func (Fast) Decompress(dst, src []byte) ([]byte, error) {
	for len(src) > 0 {
		k := bytes.IndexByte(src, fastEsc)
		if k < 0 {
			return append(dst, src...), nil
		}
		dst = append(dst, src[:k]...)
		if k+1 >= len(src) {
			return nil, fmt.Errorf("%w: truncated escape", ErrCorrupt)
		}
		if n := int(src[k+1]); n == 0 {
			dst = append(dst, fastEsc)
		} else {
			m := len(dst)
			dst = slices.Grow(dst, n)[:m+n]
			clear(dst[m:])
		}
		src = src[k+2:]
	}
	return dst, nil
}

// --- Tight: LZ77 with a 4 KB window -------------------------------------------

// Tight is the deep codec: greedy LZ77 over a 4 KB window with 3-byte hash
// chaining. Modelled at 20 instructions per byte, like the paper's 50 %
// algorithm.
type Tight struct{}

const (
	tightWindow   = 4096
	tightMinMatch = 4
	tightMaxMatch = 0x7F + tightMinMatch // length must fit the 7-bit tag
	tightMaxLit   = 127
)

// Token stream:
//
//	0x00..0x7F  literal run: tag+1 literal bytes follow
//	0x80..0xFF  match: length = (tag & 0x7F) + tightMinMatch,
//	            followed by a 2-byte little-endian backward offset (>=1)

// Name implements Codec.
func (Tight) Name() string { return "tight" }

// CostPerByte implements Codec.
func (Tight) CostPerByte() int { return 20 }

// Compress implements Codec.
func (Tight) Compress(dst, src []byte) []byte {
	var table [1 << 12]int // hash -> last position+1
	litStart := 0
	flushLit := func(end int) {
		for litStart < end {
			n := end - litStart
			if n > tightMaxLit+1 {
				n = tightMaxLit + 1
			}
			dst = append(dst, byte(n-1))
			dst = append(dst, src[litStart:litStart+n]...)
			litStart += n
		}
	}
	hash := func(i int) uint32 {
		v := uint32(src[i]) | uint32(src[i+1])<<8 | uint32(src[i+2])<<16
		return (v * 2654435761) >> 20
	}
	i := 0
	for i+tightMinMatch <= len(src) {
		h := hash(i)
		cand := table[h] - 1
		table[h] = i + 1
		if cand < 0 || i-cand > tightWindow-1 || cand >= i {
			i++
			continue
		}
		// Verify and extend the match.
		n := 0
		max := len(src) - i
		if max > tightMaxMatch {
			max = tightMaxMatch
		}
		for n < max && src[cand+n] == src[i+n] {
			n++
		}
		if n < tightMinMatch {
			i++
			continue
		}
		flushLit(i)
		dst = append(dst, 0x80|byte(n-tightMinMatch))
		var off [2]byte
		binary.LittleEndian.PutUint16(off[:], uint16(i-cand))
		dst = append(dst, off[0], off[1])
		// Index the positions the match skipped.
		end := i + n
		for j := i + 1; j < end && j+tightMinMatch <= len(src); j++ {
			table[hash(j)] = j + 1
		}
		i = end
		litStart = i
	}
	flushLit(len(src))
	return dst
}

// Decompress implements Codec.
func (Tight) Decompress(dst, src []byte) ([]byte, error) {
	base := len(dst) // matches may not reach back into what dst already held
	i := 0
	for i < len(src) {
		tag := src[i]
		i++
		if tag < 0x80 {
			n := int(tag) + 1
			if i+n > len(src) {
				return nil, fmt.Errorf("%w: truncated literal run", ErrCorrupt)
			}
			dst = append(dst, src[i:i+n]...)
			i += n
			continue
		}
		if i+2 > len(src) {
			return nil, fmt.Errorf("%w: truncated match", ErrCorrupt)
		}
		n := int(tag&0x7F) + tightMinMatch
		off := int(binary.LittleEndian.Uint16(src[i:]))
		i += 2
		if off == 0 || off > len(dst)-base {
			return nil, fmt.Errorf("%w: bad match offset %d", ErrCorrupt, off)
		}
		for j := 0; j < n; j++ {
			dst = append(dst, dst[len(dst)-off])
		}
	}
	return dst, nil
}

// --- benchmark frame generator -------------------------------------------------

// GenFrame produces a deterministic frame of the given size in which
// approximately compressible of the bytes are a compressible zero run and
// the rest are incompressible random bytes. compressible 0.3 yields ~30 %
// compression under either codec; 0.5 yields ~50 %.
func GenFrame(seed int64, size int, compressible float64) []byte {
	if compressible < 0 {
		compressible = 0
	}
	if compressible > 1 {
		compressible = 1
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]byte, size)
	rng.Read(out)
	// One zero run per 256-byte stripe keeps runs long enough for Fast and
	// matchable for Tight while spreading compressibility evenly. The +4
	// compensates for per-stripe token overhead (literal-run tags and match
	// headers) so the achieved ratio tracks the requested one — important
	// for the paper's two-compressed-chunks-per-page property at 50 %.
	const stripe = 256
	zeroPer := int(float64(stripe) * compressible)
	if compressible > 0 && compressible < 1 {
		zeroPer += 4
		if zeroPer > stripe {
			zeroPer = stripe
		}
	}
	for base := 0; base < size; base += stripe {
		end := base + zeroPer
		if end > size {
			end = size
		}
		for i := base; i < end; i++ {
			out[i] = 0
		}
	}
	return out
}

// Ratio returns len(compressed)/len(raw) for codec c on data.
func Ratio(c Codec, data []byte) float64 {
	out := c.Compress(nil, data)
	return float64(len(out)) / float64(len(data))
}
