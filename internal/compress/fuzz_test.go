package compress

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// Fuzz targets run their seed corpora under plain `go test` and can be
// extended with `go test -fuzz`.

// FuzzFastRoundTrip round-trips arbitrary bytes through Fast's token
// format: the output must decode back to the input and be no longer than
// the input plus one token's overhead per byte run it could not shorten.
func FuzzFastRoundTrip(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte{0, 0, 0, fastEsc, 0, fastEsc, fastEsc})
	f.Add(bytes.Repeat([]byte{0}, 600))
	f.Add(GenFrame(1, 512, 0.3))
	f.Add([]byte{7, 0, 0, 7, 0, 0, 0, 7, 0})                          // short runs stay literal, a trailing one does not
	f.Add(append(bytes.Repeat([]byte{1}, 200), make([]byte, 511)...)) // two-byte length, run past 255
	f.Fuzz(func(t *testing.T, data []byte) {
		comp := Fast{}.Compress(nil, data)
		out, err := Fast{}.Decompress(nil, comp)
		if err != nil {
			t.Fatalf("decompress: %v", err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("round trip mismatch: %d vs %d bytes", len(out), len(data))
		}
		if bytes.IndexByte(data, 0) < 0 && len(data) > 0 {
			// No zeros: one token, the whole input as its literal.
			if want := len(binary.AppendUvarint(nil, uint64(len(data)))) + len(data) + 1; len(comp) != want {
				t.Fatalf("zero-free input of %d bytes encoded to %d, want %d", len(data), len(comp), want)
			}
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
	f.Add([]byte{methodEscape, fastEsc})
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

// fastDecodeRef is the byte-at-a-time method-1 decoder that decodeEscapes
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

// encodeEscapes is Fast's method-1 encoder, which wrote every chunk stored
// before method 3. The envelope no longer writes it; tests use it to make
// method-1 input and to compare sizes.
func encodeEscapes(dst, src []byte) []byte {
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

// FuzzFastDecodeDifferential decodes arbitrary bytes with the method-1
// decoder and the byte-loop reference, with and without a prefix already in
// dst: the outputs must be identical, or both must fail with ErrCorrupt.
func FuzzFastDecodeDifferential(f *testing.F) {
	f.Add([]byte(nil), false)
	f.Add([]byte{1, 2, fastEsc}, false)            // truncated escape at the end
	f.Add([]byte{fastEsc, 255, 7}, true)           // longest zero run
	f.Add([]byte{fastEsc, 0, fastEsc, 0}, false)   // escaped literals
	f.Add([]byte{9, fastEsc, 3, 9, fastEsc}, true) // run, then truncated
	f.Add(encodeEscapes(nil, GenFrame(3, 1024, 0.5)), true)
	f.Fuzz(func(t *testing.T, src []byte, prefixed bool) {
		var prefix []byte
		if prefixed {
			prefix = []byte("prefix")
		}
		got, gotErr := decodeEscapes(append([]byte(nil), prefix...), src)
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

// FuzzRunsDecodeHostile feeds arbitrary bytes to the token decoder behind a
// prefix already in dst. It must not panic, must fail only with ErrCorrupt,
// must leave the prefix alone, and may yield at most 255 bytes per 2 bytes
// read. What it decodes must survive a round trip through the encoder.
func FuzzRunsDecodeHostile(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte{0, 255, 0, 255, 0, 255})                                        // zero runs only: the expansion bound
	f.Add([]byte{3, 'a', 'b', 'c', 0})                                           // one literal, no zeros
	f.Add([]byte{4, 'a', 'b'})                                                   // literal past the end
	f.Add([]byte{2, 'a', 'b'})                                                   // missing zero-run byte
	f.Add([]byte{0x80})                                                          // truncated length
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F, 0}) // length near 2^64
	f.Add(Fast{}.Compress(nil, GenFrame(6, 1024, 0.5)))
	f.Fuzz(func(t *testing.T, src []byte) {
		prefix := []byte("prefix")
		out, err := Fast{}.Decompress(append([]byte(nil), prefix...), src)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error %v is not ErrCorrupt", err)
			}
			return
		}
		if !bytes.HasPrefix(out, prefix) {
			t.Fatal("decoder overwrote the prefix")
		}
		body := out[len(prefix):]
		if 2*len(body) > 255*len(src) {
			t.Fatalf("%d input bytes decoded to %d", len(src), len(body))
		}
		again, err := Fast{}.Decompress(nil, Fast{}.Compress(nil, body))
		if err != nil || !bytes.Equal(again, body) {
			t.Fatalf("re-encoding the decoded bytes failed: %v", err)
		}
	})
}

// chunkSet returns n distinct 8,000-byte chunks of GenFrame at 0.5 — the
// shape of an f-chunk under the fast codec — so a benchmark loop over them
// decodes from cache-cold input rather than one hot chunk.
func chunkSet(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = GenFrame(int64(i), 8000, 0.5)
	}
	return out
}

// BenchmarkFastDecode decodes 1,024 distinct chunks in turn in each stored
// form of Fast: "runs" is method 3, which every chunk is written in now;
// "escape" is method 1, which chunks stored before it still use.
func BenchmarkFastDecode(b *testing.B) {
	raw := chunkSet(1024)
	for _, form := range []struct {
		name   string
		encode func(dst, src []byte) []byte
		decode func(dst, src []byte) ([]byte, error)
	}{
		{"runs", Fast{}.Compress, Fast{}.Decompress},
		{"escape", encodeEscapes, decodeEscapes},
	} {
		b.Run(form.name, func(b *testing.B) {
			comp := make([][]byte, len(raw))
			for i, r := range raw {
				comp[i] = form.encode(nil, r)
			}
			dst := make([]byte, 0, 8000)
			b.SetBytes(8000)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if dst, err = form.decode(dst[:0], comp[i%len(comp)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFastEncode encodes the same 1,024 chunks in each form.
func BenchmarkFastEncode(b *testing.B) {
	raw := chunkSet(1024)
	for _, form := range []struct {
		name   string
		encode func(dst, src []byte) []byte
	}{
		{"runs", Fast{}.Compress},
		{"escape", encodeEscapes},
	} {
		b.Run(form.name, func(b *testing.B) {
			dst := make([]byte, 0, 8192)
			b.SetBytes(8000)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = form.encode(dst[:0], raw[i%len(raw)])
			}
		})
	}
}

// FuzzAppendEncode encodes arbitrary bytes behind a prefix with each codec:
// the prefix must survive, the envelope must equal Encode's, be no larger
// than the raw one, and decode back to the input.
func FuzzAppendEncode(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte{0, 0, 0, fastEsc, fastEsc, fastEsc})
	f.Add(GenFrame(4, 2048, 0))
	f.Add(GenFrame(5, 2048, 0.5))
	f.Add(append(make([]byte, 700), 1, 2, 0, 0)) // runs past 255, short run at the end
	f.Fuzz(func(t *testing.T, data []byte) {
		prefix := []byte("hdr:")
		for _, c := range []Codec{nil, Fast{}, Tight{}} {
			out, err := AppendEncode(append([]byte(nil), prefix...), c, data)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(out, prefix) {
				t.Fatalf("codec %v overwrote the prefix", c)
			}
			env := out[len(prefix):]
			if want, _ := Encode(c, data); !bytes.Equal(env, want) {
				t.Fatalf("codec %v: AppendEncode differs from Encode", c)
			}
			if len(env) > 1+len(data) {
				t.Fatalf("codec %v: %d-byte envelope for %d bytes", c, len(env), len(data))
			}
			if _, fast := c.(Fast); fast && env[0] != methodRuns && env[0] != methodRaw {
				t.Fatalf("fast envelope written with method %d", env[0])
			}
			got, err := Decode(env)
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("codec %v: round trip failed: %v", c, err)
			}
		}
	})
}
