package repl

import (
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"postlob/internal/buffer"
	"postlob/internal/catalog"
	"postlob/internal/storage"
	"postlob/internal/txn"
	"postlob/internal/wal"
)

// Close returns only once every goroutine the sender started has finished:
// the accept loop, each connection's handler, and the handler's status
// reader. A replica is connected and streaming when the primary's log
// closes, so the handler leaves its loop on ErrClosed rather than on a hung
// up replica, and Close follows at once; the check runs right after it,
// with no polling.
func TestSenderCloseLeavesNoGoroutine(t *testing.T) {
	newPool := func() *buffer.Pool {
		sw := storage.NewSwitch()
		sw.Register(storage.Mem, storage.NewMemManager(storage.DeviceModel{}, nil))
		return buffer.NewPool(16, sw, nil)
	}
	log, err := wal.Open(storage.NewMemManager(storage.DeviceModel{}, nil), wal.Config{SegBlocks: 8})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSender(log, newPool(), txn.NewManager(), catalog.NewMemory())
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)

	r, err := StartReceiver(ReceiverConfig{Primary: l.Addr().String(), Name: "leak", Dir: t.TempDir(),
		Pool: newPool(), Mgr: txn.NewManager(), Cat: catalog.NewMemory()})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Kill()
	if err := r.WaitReady(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	// A record shipped and applied means the handler is in its streaming
	// loop, with the status reader running beside it.
	end, err := log.AppendCommit(1, 1)
	if err == nil {
		err = log.Flush(end)
	}
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); r.Applied() < uint64(end); {
		if time.Now().After(deadline) {
			t.Fatalf("replica applied %d, want %d", r.Applied(), end)
		}
		time.Sleep(time.Millisecond)
	}

	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1<<20)
	stacks := string(buf[:runtime.Stack(buf, true)])
	for _, g := range strings.Split(stacks, "\n\n") {
		if strings.Contains(g, "repl.(*Sender)") {
			t.Fatalf("goroutine outlives Sender.Close:\n%s", g)
		}
	}
}
