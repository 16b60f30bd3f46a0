package postlob

import (
	"bytes"
	"net"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"postlob/internal/client"
)

// TestCloseStopsEveryDaemon opens every background loop and accept loop the
// facade runs — a primary with the vacuum daemon, the background I/O engine
// and a replication sender, a serving gateway, and a replica streaming from
// the primary through that gateway — then closes them all: no goroutine may
// outlive its Close.
func TestCloseStopsEveryDaemon(t *testing.T) {
	before := runtime.NumGoroutine()
	pdb, err := Open(t.TempDir(), Options{Durability: DurabilityWAL, WALSegBlocks: 8,
		AutoVacuum: &VacuumOptions{ReclaimHistory: true}})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	gw := pdb.NewGateway(GatewayOptions{})
	served := make(chan error, 1)
	go func() { served <- gw.ServeStream(l) }()
	rdb, err := Open(t.TempDir(), Options{ReplicaOf: l.Addr().String(), ReplCheckpointEvery: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}

	// Put every loop to work once: commits wake the WAL flusher, the
	// sender ships them, the overwrite stamps versions for the vacuum, and
	// a stream client holds a gateway connection open across Close.
	ref := commitObject(t, pdb, bytes.Repeat([]byte{1}, 64<<10))
	tx := pdb.Begin()
	obj, err := pdb.LargeObjects().Open(tx, ref)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obj.Write(bytes.Repeat([]byte{2}, 64<<10)); err != nil {
		t.Fatal(err)
	}
	if err := obj.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, pdb, rdb, 10*time.Second)
	s, err := client.DialStream(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Now(); err != nil {
		t.Fatal(err)
	}

	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != nil {
		t.Fatalf("ServeStream: %v", err)
	}
	s.Close()
	if err := rdb.Close(); err != nil {
		t.Fatal(err)
	}
	if err := pdb.Close(); err != nil {
		t.Fatal(err)
	}
	// Exiting goroutines leave the count a moment after their Close
	// returned; wait for it to settle.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		var stacks strings.Builder
		pprof.Lookup("goroutine").WriteTo(&stacks, 1)
		t.Fatalf("%d goroutines after closing everything, %d before:\n%s", n, before, stacks.String())
	}
}
