package repl

import (
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"postlob/internal/adt"
	"postlob/internal/buffer"
	"postlob/internal/catalog"
	"postlob/internal/core"
	"postlob/internal/gateway"
	"postlob/internal/heap"
	"postlob/internal/storage"
	"postlob/internal/txn"
	"postlob/internal/wal"
)

// serveGateway serves a stream gateway over the primary's pool, transaction
// manager and catalog on a loopback port, handing replication connections
// to s, until the test ends; it returns the address replicas dial.
func serveGateway(t *testing.T, s *Sender, pool *buffer.Pool, mgr *txn.Manager, cat *catalog.Catalog) string {
	t.Helper()
	store := core.NewStore(&heap.Pool{Buf: pool, Mgr: mgr}, cat, adt.NewRegistry(),
		core.Config{FilesDir: t.TempDir(), DefaultSM: storage.Mem})
	g := gateway.New(store, gateway.Options{})
	g.SetRole(primaryRole{s})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go g.ServeStream(l)
	t.Cleanup(func() { g.Close() })
	return l.Addr().String()
}

// primaryRole is the gateway.Role of a writable primary whose sender
// serves replicas.
type primaryRole struct{ s *Sender }

func (primaryRole) ReadOnly() bool               { return false }
func (r primaryRole) Replicator() func(net.Conn) { return r.s.Handle }

// Close returns only once the sender's work has finished: each handed-over
// connection's handler, which runs on the gateway's goroutine, and the
// handler's status reader. A replica is connected and streaming when the
// primary's log closes, so the handler leaves its loop on ErrClosed rather
// than on a hung up replica, and Close follows at once; the check runs
// right after it, with no polling.
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
	pool, mgr, cat := newPool(), txn.NewManager(), catalog.NewMemory()
	s := NewSender(log, pool, mgr, cat)
	addr := serveGateway(t, s, pool, mgr, cat)

	r, err := StartReceiver(ReceiverConfig{Primary: addr, Name: "leak", Dir: t.TempDir(),
		Pool: &heap.Pool{Buf: newPool(), Mgr: txn.NewManager()}, Cat: catalog.NewMemory()})
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
	// The handler and its status reader both show as repl.(*Sender).handle
	// frames; the gateway goroutine that ran the handler may still be on
	// its way out through the exported Handle, which is not sender work.
	buf := make([]byte, 1<<20)
	stacks := string(buf[:runtime.Stack(buf, true)])
	for _, g := range strings.Split(stacks, "\n\n") {
		if strings.Contains(g, "repl.(*Sender).handle") {
			t.Fatalf("sender work outlives Sender.Close:\n%s", g)
		}
	}
}
