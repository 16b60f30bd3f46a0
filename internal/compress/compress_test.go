package compress

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"postlob/internal/vclock"
)

func codecs() []Codec { return []Codec{Fast{}, Tight{}} }

func TestRoundTripBasic(t *testing.T) {
	inputs := [][]byte{
		nil,
		{},
		{0},
		{fastEsc},
		bytes.Repeat([]byte{0}, 1000),
		bytes.Repeat([]byte{fastEsc}, 1000),
		[]byte("hello, large objects"),
		bytes.Repeat([]byte("abcd"), 512),
	}
	for _, c := range codecs() {
		for i, in := range inputs {
			comp := c.Compress(nil, in)
			out, err := c.Decompress(nil, comp)
			if err != nil {
				t.Fatalf("%s input %d: %v", c.Name(), i, err)
			}
			if !bytes.Equal(out, in) {
				t.Fatalf("%s input %d: round trip mismatch (%d vs %d bytes)", c.Name(), i, len(out), len(in))
			}
		}
	}
}

func TestQuickRoundTripArbitrary(t *testing.T) {
	for _, c := range codecs() {
		c := c
		f := func(data []byte) bool {
			comp := c.Compress(nil, data)
			out, err := c.Decompress(nil, comp)
			return err == nil && bytes.Equal(out, data)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
	}
}

func TestRoundTripGeneratedFrames(t *testing.T) {
	for _, c := range codecs() {
		for _, frac := range []float64{0, 0.3, 0.5, 0.9, 1} {
			in := GenFrame(42, 4096, frac)
			comp := c.Compress(nil, in)
			out, err := c.Decompress(nil, comp)
			if err != nil || !bytes.Equal(out, in) {
				t.Fatalf("%s frac %.1f: round trip failed (%v)", c.Name(), frac, err)
			}
		}
	}
}

// TestRatioCalibration pins the paper's compression figures: ~30 % reduction
// on the 30 %-compressible frames and ~50 % on the 50 % frames.
func TestRatioCalibration(t *testing.T) {
	for _, c := range codecs() {
		var sum30, sum50 float64
		const frames = 50
		for i := int64(0); i < frames; i++ {
			sum30 += Ratio(c, GenFrame(i, 4096, 0.3))
			sum50 += Ratio(c, GenFrame(i, 4096, 0.5))
		}
		r30, r50 := sum30/frames, sum50/frames
		t.Logf("%s: ratio at 0.3 = %.3f, at 0.5 = %.3f", c.Name(), r30, r50)
		if r30 < 0.64 || r30 > 0.76 {
			t.Errorf("%s: 30%% frames compress to %.3f, want ~0.70", c.Name(), r30)
		}
		if r50 < 0.44 || r50 > 0.56 {
			t.Errorf("%s: 50%% frames compress to %.3f, want ~0.50", c.Name(), r50)
		}
	}
}

func TestIncompressibleDataDoesNotExplode(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	data := make([]byte, 8192)
	rng.Read(data)
	for _, c := range codecs() {
		comp := c.Compress(nil, data)
		if float64(len(comp)) > 1.05*float64(len(data)) {
			t.Errorf("%s expands random data to %.2fx", c.Name(), float64(len(comp))/float64(len(data)))
		}
	}
}

func TestEncodeDecodeEnvelope(t *testing.T) {
	data := GenFrame(3, 4096, 0.5)
	for _, c := range []Codec{nil, Fast{}, Tight{}} {
		enc, err := Encode(c, data)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := Decode(enc)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dec, data) {
			t.Fatalf("envelope round trip failed for %v", c)
		}
	}
}

// TestFastDecodesIntoSizedBuffer checks that Fast writes the token form and
// that decoding it into a buffer of the known decoded length allocates
// nothing, as a v-segment read does.
func TestFastDecodesIntoSizedBuffer(t *testing.T) {
	data := GenFrame(4, 8000, 0.5)
	enc, err := Encode(Fast{}, data)
	if err != nil {
		t.Fatal(err)
	}
	if enc[0] != methodRuns {
		t.Fatalf("fast envelope written with method %d", enc[0])
	}
	buf := make([]byte, 0, len(data))
	var dec []byte
	allocs := testing.AllocsPerRun(20, func() {
		if dec, err = DecodeInto(buf, enc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 || !bytes.Equal(dec, data) {
		t.Fatalf("DecodeInto: %v allocations, %d/%d bytes", allocs, len(dec), len(data))
	}
}

func TestEncodeFallsBackToRaw(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	data := make([]byte, 4096)
	rng.Read(data)
	enc, err := Encode(Fast{}, data)
	if err != nil {
		t.Fatal(err)
	}
	if enc[0] != methodRaw {
		t.Fatalf("incompressible block stored with method %d", enc[0])
	}
	if len(enc) != len(data)+1 {
		t.Fatalf("raw envelope length %d", len(enc))
	}
	dec, err := Decode(enc)
	if err != nil || !bytes.Equal(dec, data) {
		t.Fatalf("raw decode: %v", err)
	}
}

func TestDecodeCorrupt(t *testing.T) {
	if _, err := Decode(nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("empty: %v", err)
	}
	if _, err := Decode([]byte{99, 1, 2}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad method: %v", err)
	}
	// Fast: truncated length, literal past the end, missing zero-run byte.
	for _, src := range [][]byte{{0x80}, {3, 'a', 'b'}, {2, 'a', 'b'}, {0, 9, 1}} {
		if _, err := (Fast{}).Decompress(nil, src); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("fast %v: %v", src, err)
		}
	}
	// Method 1: truncated escape.
	if _, err := Decode([]byte{methodEscape, fastEsc}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("escape truncated: %v", err)
	}
	// Tight: truncated literal run and bad offset.
	if _, err := (Tight{}).Decompress(nil, []byte{5, 'a'}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("tight truncated: %v", err)
	}
	if _, err := (Tight{}).Decompress(nil, []byte{0x80, 9, 0}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("tight bad offset: %v", err)
	}
}

func TestLookup(t *testing.T) {
	if c, ok := Lookup("fast"); !ok || c.Name() != "fast" {
		t.Fatalf("fast: %v %v", c, ok)
	}
	if c, ok := Lookup("tight"); !ok || c.Name() != "tight" {
		t.Fatalf("tight: %v %v", c, ok)
	}
	if c, ok := Lookup(""); !ok || c != nil {
		t.Fatalf("empty: %v %v", c, ok)
	}
	if _, ok := Lookup("zstd"); ok {
		t.Fatal("unknown codec found")
	}
}

func TestCPUModelCharging(t *testing.T) {
	var clk vclock.Clock
	m := CPUModel{IPS: 1_000_000} // 1 MIPS
	Charge(&clk, m, Fast{}, 1000) // 8000 instructions = 8 ms
	if got := clk.Now(); got != 8*time.Millisecond {
		t.Fatalf("fast charge = %v", got)
	}
	clk.Reset()
	Charge(&clk, m, Tight{}, 1000) // 20000 instructions = 20 ms
	if got := clk.Now(); got != 20*time.Millisecond {
		t.Fatalf("tight charge = %v", got)
	}
	clk.Reset()
	Charge(&clk, m, nil, 1000)
	if clk.Now() != 0 {
		t.Fatal("nil codec charged")
	}
	if (CPUModel{}).Cost(1000) != 0 {
		t.Fatal("zero model charged")
	}
}

func TestCostPerByteMatchesPaper(t *testing.T) {
	if got := (Fast{}).CostPerByte(); got != 8 {
		t.Fatalf("Fast cost = %d, paper says 8 instr/byte", got)
	}
	if got := (Tight{}).CostPerByte(); got != 20 {
		t.Fatalf("Tight cost = %d, paper says 20 instr/byte", got)
	}
}

func TestTightCompressesRepetitivePatterns(t *testing.T) {
	// LZ77 must beat plain zero-RLE on non-zero repeated data.
	data := bytes.Repeat([]byte("0123456789abcdef"), 256)
	rTight := Ratio(Tight{}, data)
	rFast := Ratio(Fast{}, data)
	if rTight >= 0.2 {
		t.Fatalf("tight on pattern = %.3f", rTight)
	}
	if rFast < 0.99 {
		t.Fatalf("fast unexpectedly compresses patterns: %.3f", rFast)
	}
}

func TestGenFrameDeterministic(t *testing.T) {
	a := GenFrame(5, 4096, 0.3)
	b := GenFrame(5, 4096, 0.3)
	if !bytes.Equal(a, b) {
		t.Fatal("GenFrame not deterministic")
	}
	c := GenFrame(6, 4096, 0.3)
	if bytes.Equal(a, c) {
		t.Fatal("GenFrame ignores seed")
	}
}

// TestMethodOneGoldenDecodes decodes envelopes that Fast's method-1 encoder
// wrote before method 3 existed (testdata/method1, with each input's length
// and SHA-256 in MANIFEST): chunks already stored must read back
// byte-identically, behind a prefix already in dst too.
func TestMethodOneGoldenDecodes(t *testing.T) {
	dir := filepath.Join("testdata", "method1")
	man, err := os.Open(filepath.Join(dir, "MANIFEST"))
	if err != nil {
		t.Fatal(err)
	}
	defer man.Close()
	n := 0
	sc := bufio.NewScanner(man)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 3 {
			t.Fatalf("bad manifest line %q", sc.Text())
		}
		size, err := strconv.Atoi(f[1])
		if err != nil {
			t.Fatal(err)
		}
		env, err := os.ReadFile(filepath.Join(dir, f[0]+".env"))
		if err != nil {
			t.Fatal(err)
		}
		if env[0] != methodEscape {
			t.Fatalf("%s: method %d, want %d", f[0], env[0], methodEscape)
		}
		prefix := []byte("prefix")
		out, err := DecodeInto(append([]byte(nil), prefix...), env)
		if err != nil {
			t.Fatalf("%s: %v", f[0], err)
		}
		if !bytes.HasPrefix(out, prefix) {
			t.Fatalf("%s: prefix overwritten", f[0])
		}
		out = out[len(prefix):]
		sum := sha256.Sum256(out)
		if len(out) != size || hex.EncodeToString(sum[:]) != f[2] {
			t.Fatalf("%s: decoded %d bytes (sha256 %x), want %d (%s)", f[0], len(out), sum, size, f[2])
		}
		n++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("empty manifest")
	}
	// The generated inputs can be rebuilt, so check one against its source.
	env, err := os.ReadFile(filepath.Join(dir, "genframe_8000_0.5_seed2.env"))
	if err != nil {
		t.Fatal(err)
	}
	if out, err := Decode(env); err != nil || !bytes.Equal(out, GenFrame(2, 8000, 0.5)) {
		t.Fatalf("genframe_8000_0.5_seed2 does not decode to its frame: %v", err)
	}
}

// TestRunsNoLongerThanEscapes compares Fast's token form with the method-1
// form it replaced on 400 GenFrame chunks per size and fraction. At 0.5 (the f-chunk
// shape: literals under 128 bytes) no chunk is longer, so two chunks still
// share a page. At 0.3 a 176-byte literal needs a two-byte length, which the
// old form did not pay when the literal held no zero or escape byte: a chunk
// may come out a few bytes longer, at most one byte per 256-byte stripe and
// one for the closing token, while the total stays shorter.
func TestRunsNoLongerThanEscapes(t *testing.T) {
	const chunks = 400
	for _, size := range []int{4096, 8000, 64 << 10} {
		for _, frac := range []float64{0.3, 0.5} {
			var sumNew, sumOld, longer int
			for seed := int64(0); seed < chunks; seed++ {
				d := GenFrame(seed, size, frac)
				n, o := len(Fast{}.Compress(nil, d)), len(encodeEscapes(nil, d))
				sumNew += n
				sumOld += o
				if n <= o {
					continue
				}
				longer++
				if frac == 0.5 || n-o > size/256+2 {
					t.Fatalf("size %d frac %.1f seed %d: %d bytes against %d", size, frac, seed, n, o)
				}
			}
			t.Logf("size %d frac %.1f: mean %d against %d bytes, %d/%d chunks longer",
				size, frac, sumNew/chunks, sumOld/chunks, longer, chunks)
			if sumNew > sumOld {
				t.Fatalf("size %d frac %.1f: %d bytes in total against %d", size, frac, sumNew, sumOld)
			}
		}
	}
}
