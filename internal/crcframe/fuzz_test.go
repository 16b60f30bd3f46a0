package crcframe

import (
	"bytes"
	"errors"
	"testing"
)

// sealed frames body with an honest header.
func sealed(body ...byte) []byte {
	b := append(make([]byte, HdrLen), body...)
	Seal(b)
	return b
}

// FuzzDecode is the envelope's contract for all three of its users: for
// arbitrary input, Decode never panics and fails only with ErrFrame; an
// accepted frame re-encodes to exactly the bytes it was decoded from; and
// flipping any single byte of an accepted frame makes Decode refuse it. The
// seeds are a WAL record, a stream-protocol frame and a replication frame,
// and the checked-in corpus holds one of each from its real encoder.
func FuzzDecode(f *testing.F) {
	// A WAL commit record: type 2, xid 9, timestamp 42.
	f.Add(sealed(2, 9, 0, 0, 0, 42, 0, 0, 0, 0, 0, 0, 0))
	// A stream data frame: kind 4, FIN, reserved, stream 3, then payload.
	f.Add(sealed(append([]byte{4, 1, 0, 0, 3, 0, 0, 0}, "chunk"...)...))
	// A replication base-done frame: kind 7, base LSN 4096, no data.
	f.Add(sealed(7, 0, 0x10, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0))
	f.Add([]byte{})
	f.Add(make([]byte, HdrLen))                             // zero length
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 1, 2}) // 4 GiB length
	const max = 1 << 20
	f.Fuzz(func(t *testing.T, data []byte) {
		body, n, err := Decode(data, max)
		if err != nil {
			if !errors.Is(err, ErrFrame) {
				t.Fatalf("decode failure without ErrFrame: %v", err)
			}
			return
		}
		if n != HdrLen+len(body) || n > len(data) || len(body) == 0 {
			t.Fatalf("decode consumed %d of %d bytes for a %d-byte body", n, len(data), len(body))
		}
		if enc := sealed(body...); !bytes.Equal(enc, data[:n]) {
			t.Fatalf("frame re-encodes to %x, want %x", enc, data[:n])
		}
		frame := data[:n:n]
		got, err := ReadInto(bytes.NewReader(data), nil, max)
		if err != nil || !bytes.Equal(got, frame) {
			t.Fatalf("ReadInto = %x, %v; Decode accepted %x", got, err, frame)
		}
		// CRC-32 catches every error burst of up to 32 bits in the body, and
		// a flip in the header changes the length or the stored checksum.
		for i := range frame {
			mut := append([]byte(nil), frame...)
			mut[i] ^= 0xa5
			if _, _, err := Decode(mut, max); err == nil {
				t.Fatalf("byte %d flipped: frame still decodes", i)
			}
		}
	})
}
