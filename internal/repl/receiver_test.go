package repl

import (
	"testing"

	"postlob/internal/storage"
	"postlob/internal/wal"
)

// The replica crash sweep (seed 1001, under CPU load) once left a replica
// whose applied position was exactly a segment boundary: a record had
// filled the previous segment to its last byte. The sender resumes from
// SegmentStart of that position, past the new segment's header, and the
// receiver used to reject that start and reconnect forever.
func TestValidStartAtSegmentBoundary(t *testing.T) {
	const seg = 64 << 10
	hdr := uint64(wal.SegHeaderLen)
	for _, c := range []struct {
		name          string
		expect, start uint64
		ok            bool
	}{
		{"contiguous", 3*seg + 100, 3*seg + 100, true},
		{"padding skipped at a segment's end", 3*seg + 60000, 4*seg + hdr, true},
		{"previous segment filled to its last byte", 3 * seg, 3*seg + hdr, true},
		{"records skipped", 3*seg + 100, 3*seg + 200, false},
		{"records skipped past a header", 3*seg + 100, 4*seg + hdr + 8, false},
		{"first record of a segment skipped", 3 * seg, 3*seg + hdr + 8, false},
		{"start behind expect", 3*seg + 100, 3*seg + hdr, false},
	} {
		if got := validStart(c.expect, c.start, seg); got != c.ok {
			t.Errorf("%s: validStart(%d, %d) = %v, want %v", c.name, c.expect, c.start, got, c.ok)
		}
	}
}

// Whatever durable position a replica reports, the start the sender ships
// from — the position itself, moved past a segment header — is accepted.
func TestValidStartAcceptsSenderResume(t *testing.T) {
	log, err := wal.Open(storage.NewMemManager(storage.DeviceModel{}, nil), wal.Config{SegBlocks: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	segBytes := log.SegBytes()
	for _, from := range []uint64{segBytes, segBytes + 1, 2*segBytes + wal.SegHeaderLen, 2*segBytes + 500, 3 * segBytes} {
		start := wal.LSN(from)
		if ss := log.SegmentStart(start); start < ss {
			start = ss
		}
		if !validStart(from, uint64(start), segBytes) {
			t.Errorf("replica at %d rejects the sender's resume at %d", from, start)
		}
	}
}
