package daemon

import (
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// gatedRound is a round that announces itself on started (dropping the
// announcement once 16 are unread) and then blocks until release lets it
// finish, counting its calls.
type gatedRound struct {
	calls   atomic.Int32
	started chan struct{}
	release chan struct{}
}

func newGatedRound() *gatedRound {
	return &gatedRound{started: make(chan struct{}, 16), release: make(chan struct{})}
}

func (g *gatedRound) round() error {
	g.calls.Add(1)
	select {
	case g.started <- struct{}{}:
	default:
	}
	<-g.release
	return nil
}

func TestLoopKicksCoalesce(t *testing.T) {
	g := newGatedRound()
	l := Start(g.round, 0)
	if !l.Kick() {
		t.Fatal("first kick was not queued")
	}
	<-g.started // round 1 in flight; its kick was consumed
	if !l.Kick() {
		t.Fatal("kick during a round was not queued")
	}
	for i := 0; i < 10; i++ {
		if l.Kick() {
			t.Fatalf("kick %d queued behind a pending one", i)
		}
	}
	g.release <- struct{}{}
	<-g.started // round 2: the eleven kicks bought exactly one more
	close(g.release)
	if err := l.Stop(); err != nil {
		t.Fatal(err)
	}
	if n := g.calls.Load(); n != 2 {
		t.Fatalf("%d rounds, want 2", n)
	}
}

func TestLoopTicks(t *testing.T) {
	g := newGatedRound()
	close(g.release)
	l := Start(g.round, time.Millisecond)
	<-g.started
	<-g.started // a second round nobody kicked
	if err := l.Stop(); err != nil {
		t.Fatal(err)
	}
}

func TestManualStepStartsNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	var during int
	l := Manual(func() error {
		during = runtime.NumGoroutine()
		return errors.New("step failed")
	})
	if l.Kick() {
		t.Fatal("a manual loop queued a kick")
	}
	if err := l.Step(); err == nil || err.Error() != "step failed" {
		t.Fatalf("Step returned %v, want the round's error", err)
	}
	// Goroutines of earlier tests may still be exiting, so the count can
	// only be checked for growth.
	if during > before {
		t.Fatalf("%d goroutines during Step, %d before", during, before)
	}
	// Step errors belong to Step's caller, not to Stop.
	if err := l.Stop(); err != nil {
		t.Fatalf("Stop returned %v", err)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines after Stop, %d before", n, before)
	}
}

func TestLoopConcurrentStopsReturnFirstError(t *testing.T) {
	var calls atomic.Int32
	done := make(chan struct{}, 2)
	l := Start(func() error {
		n := calls.Add(1)
		defer func() { done <- struct{}{} }()
		if n > 2 {
			return nil
		}
		return fmt.Errorf("round %d", n)
	}, 0)
	l.Kick()
	<-done
	l.Kick()
	<-done
	const stoppers = 8
	errs := make([]error, stoppers)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = l.Stop()
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil || err.Error() != "round 1" {
			t.Errorf("Stop %d returned %v, want round 1", i, err)
		}
	}
	if err := l.Stop(); err == nil || err.Error() != "round 1" {
		t.Errorf("a later Stop returned %v, want round 1", err)
	}
}

func TestLoopStopWaitsForRound(t *testing.T) {
	var finished atomic.Bool
	started, release := make(chan struct{}), make(chan struct{})
	l := Start(func() error {
		close(started)
		<-release
		finished.Store(true)
		return nil
	}, 0)
	l.Kick()
	<-started
	stopped := make(chan bool)
	go func() {
		l.Stop()
		stopped <- finished.Load()
	}()
	select {
	case <-stopped:
		t.Fatal("Stop returned while a round was in flight")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	if !<-stopped {
		t.Fatal("Stop returned before the round finished")
	}
}

// lateListener hands back one connection only after Close has been called
// on it: the Accept that returns just as the server's Close sweeps its
// connection table.
type lateListener struct {
	conn      net.Conn
	accepting chan struct{} // closed when the first Accept parks
	closed    chan struct{}
	once      sync.Once
	handed    atomic.Bool
}

func newLateListener(conn net.Conn) *lateListener {
	return &lateListener{conn: conn, accepting: make(chan struct{}), closed: make(chan struct{})}
}

func (l *lateListener) Accept() (net.Conn, error) {
	if l.handed.CompareAndSwap(false, true) {
		close(l.accepting)
		<-l.closed
		return l.conn, nil
	}
	<-l.closed
	return nil, net.ErrClosed
}

func (l *lateListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *lateListener) Addr() net.Addr { return l.conn.LocalAddr() }

func TestServerCloseClosesConnAcceptedDuringClose(t *testing.T) {
	server, client := net.Pipe()
	defer client.Close()
	ln := newLateListener(server)
	var s Server
	var handled atomic.Bool
	served := make(chan error, 1)
	go func() {
		served <- s.Serve(ln, func(c net.Conn) {
			handled.Store(true)
			io.Copy(io.Discard, c)
		})
	}()
	<-ln.accepting
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	client.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := client.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("connection accepted during Close still open after it: read %v", err)
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve still running after Close")
	}
	if handled.Load() {
		t.Fatal("a connection accepted during Close was handed to its handler")
	}
	if err := s.Serve(ln, func(net.Conn) {}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Serve after Close returned %v, want ErrClosed", err)
	}
}

func TestServerCloseWaitsForHandlers(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var s Server
	var finished atomic.Int32
	go s.Serve(ln, func(c net.Conn) {
		c.Write([]byte{1})
		io.Copy(io.Discard, c) // until Close closes c
		finished.Add(1)
	})
	const conns = 3
	for i := 0; i < conns; i++ {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.Read(make([]byte, 1)); err != nil { // the handler is running
			t.Fatal(err)
		}
	}
	s.Close()
	if n := finished.Load(); n != conns {
		t.Fatalf("Close returned with %d of %d handlers finished", n, conns)
	}
}

// TestServerHandleOwnsHandedOverConn: a connection handed over with Handle
// runs on the caller's goroutine as one of the server's own, so Close
// closes it and waits for its handler; after Close, Handle closes the
// connection without running the handler.
func TestServerHandleOwnsHandedOverConn(t *testing.T) {
	var s Server
	server, client := net.Pipe()
	defer client.Close()
	var finished atomic.Bool
	returned := make(chan struct{})
	go func() {
		defer close(returned)
		s.Handle(server, func(c net.Conn) {
			c.Write([]byte{1})
			io.Copy(io.Discard, c) // until Close closes c
			finished.Store(true)
		})
	}()
	if _, err := client.Read(make([]byte, 1)); err != nil { // the handler is running
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if !finished.Load() {
		t.Fatal("Close returned before the handed-over connection's handler")
	}
	<-returned

	late, lateClient := net.Pipe()
	defer lateClient.Close()
	s.Handle(late, func(net.Conn) { t.Error("handler ran after Close") })
	lateClient.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := lateClient.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("connection handed over after Close still open: read %v", err)
	}
}
