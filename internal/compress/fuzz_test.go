package compress

import (
	"bytes"
	"errors"
	"testing"
)

// Fuzz targets run their seed corpora under plain `go test` and can be
// extended with `go test -fuzz`.

func FuzzFastRoundTrip(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte{0, 0, 0, fastEsc, 0, fastEsc, fastEsc})
	f.Add(bytes.Repeat([]byte{0}, 600))
	f.Add(GenFrame(1, 512, 0.3))
	f.Fuzz(func(t *testing.T, data []byte) {
		comp := Fast{}.Compress(nil, data)
		out, err := Fast{}.Decompress(nil, comp)
		if err != nil {
			t.Fatalf("decompress: %v", err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("round trip mismatch: %d vs %d bytes", len(out), len(data))
		}
	})
}

func FuzzTightRoundTrip(f *testing.F) {
	f.Add([]byte(nil))
	f.Add(bytes.Repeat([]byte("abcd"), 400))
	f.Add(GenFrame(2, 4096, 0.5))
	f.Add([]byte{0x80, 0x01, 0x00}) // looks like a match token
	f.Fuzz(func(t *testing.T, data []byte) {
		comp := Tight{}.Compress(nil, data)
		out, err := Tight{}.Decompress(nil, comp)
		if err != nil {
			t.Fatalf("decompress: %v", err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("round trip mismatch: %d vs %d bytes", len(out), len(data))
		}
	})
}

// FuzzDecodeHostileInput feeds arbitrary bytes to the decoders: they must
// return an error or a result, never panic or loop.
func FuzzDecodeHostileInput(f *testing.F) {
	f.Add([]byte{methodFast, fastEsc})
	f.Add([]byte{methodTight, 0x80, 0xFF, 0xFF})
	f.Add([]byte{99, 1, 2, 3})
	f.Add([]byte(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		out, err := Decode(data)
		if err == nil && len(data) >= 1 && data[0] == methodRaw {
			if !bytes.Equal(out, data[1:]) {
				t.Fatal("raw decode mismatch")
			}
		}
	})
}

// fastDecodeRef is the byte-at-a-time Fast decoder the run-at-a-time one
// replaced, kept as the differential reference.
func fastDecodeRef(dst, src []byte) ([]byte, error) {
	i := 0
	for i < len(src) {
		b := src[i]
		if b != fastEsc {
			dst = append(dst, b)
			i++
			continue
		}
		if i+1 >= len(src) {
			return nil, ErrCorrupt
		}
		n := src[i+1]
		if n == 0 {
			dst = append(dst, fastEsc)
		} else {
			for j := byte(0); j < n; j++ {
				dst = append(dst, 0)
			}
		}
		i += 2
	}
	return dst, nil
}

// FuzzFastDecodeDifferential decodes arbitrary bytes with Fast.Decompress and
// the byte-loop reference, with and without a prefix already in dst: the
// outputs must be identical, or both must fail with ErrCorrupt.
func FuzzFastDecodeDifferential(f *testing.F) {
	f.Add([]byte(nil), false)
	f.Add([]byte{1, 2, fastEsc}, false)            // truncated escape at the end
	f.Add([]byte{fastEsc, 255, 7}, true)           // longest zero run
	f.Add([]byte{fastEsc, 0, fastEsc, 0}, false)   // escaped literals
	f.Add([]byte{9, fastEsc, 3, 9, fastEsc}, true) // run, then truncated
	f.Add(Fast{}.Compress(nil, GenFrame(3, 1024, 0.5)), true)
	f.Fuzz(func(t *testing.T, src []byte, prefixed bool) {
		var prefix []byte
		if prefixed {
			prefix = []byte("prefix")
		}
		got, gotErr := Fast{}.Decompress(append([]byte(nil), prefix...), src)
		want, wantErr := fastDecodeRef(append([]byte(nil), prefix...), src)
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("error mismatch: got %v, reference %v", gotErr, wantErr)
		}
		if gotErr != nil {
			if !errors.Is(gotErr, ErrCorrupt) {
				t.Fatalf("error %v is not ErrCorrupt", gotErr)
			}
			return
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("output mismatch: %d vs %d bytes", len(got), len(want))
		}
	})
}

// BenchmarkFastDecode decodes a 50 %-compressible 8,000-byte chunk, the
// shape of an f-chunk under the fast codec.
func BenchmarkFastDecode(b *testing.B) {
	comp := Fast{}.Compress(nil, GenFrame(1, 8000, 0.5))
	dst := make([]byte, 0, 8000)
	b.SetBytes(8000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		if dst, err = (Fast{}).Decompress(dst[:0], comp); err != nil {
			b.Fatal(err)
		}
	}
}
