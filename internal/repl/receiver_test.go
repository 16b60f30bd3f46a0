package repl

import (
	"errors"
	"testing"

	"postlob/internal/buffer"
	"postlob/internal/heap"
	"postlob/internal/page"
	"postlob/internal/storage"
	"postlob/internal/txn"
	"postlob/internal/wal"
)

// A replica-side background write-back failure is reported by the replica's
// own next checkpoint, once — not left in the pool for a promoted primary's
// first checkpoint to trip over — and the checkpoint after it lands the page.
func TestCheckpointSurfacesBackgroundWriteError(t *testing.T) {
	sw := storage.NewSwitch()
	fault := storage.NewFaultManager(storage.NewMemManager(storage.DeviceModel{}, nil))
	sw.Register(storage.Mem, fault)
	pool := buffer.NewPool(16, sw, nil)
	pool.StartEngine(buffer.EngineConfig{Manual: true})
	defer pool.StopEngine()
	r := &Receiver{cfg: ReceiverConfig{Dir: t.TempDir(), Pool: &heap.Pool{Buf: pool, Mgr: txn.NewManager()}}}

	img := make([]byte, page.Size)
	img[0] = 0x5A
	if err := pool.ApplyRedoImage(storage.Mem, "rel", 0, img); err != nil {
		t.Fatal(err)
	}
	fault.FailWrites(true)
	if _, err := pool.BgWriterRound(0); !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("writer round on a failing device = %v, want ErrInjected", err)
	}
	fault.Heal()

	r.applied.Store(1)
	if err := r.Checkpoint(); !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("checkpoint after a failed write-back = %v, want ErrInjected", err)
	}
	if r.Durable() != 0 {
		t.Fatalf("failed checkpoint advanced the resume position to %d", r.Durable())
	}
	if err := r.Checkpoint(); err != nil {
		t.Fatalf("second checkpoint on a healed device: %v", err)
	}
	if r.Durable() != 1 {
		t.Fatalf("resume position = %d after a clean checkpoint, want 1", r.Durable())
	}
	got := make([]byte, page.Size)
	if err := fault.ReadBlock("rel", 0, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0x5A {
		t.Fatalf("device byte %#x after checkpoint, want 0x5a", got[0])
	}
}

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
