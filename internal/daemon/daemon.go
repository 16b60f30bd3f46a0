// Package daemon is the one lifecycle the stack's background work runs on.
// A Loop is a background round — the buffer pool's dirty-page writer and
// prefetcher, the vacuum cleaner, the WAL flusher — run on a clock tick
// and on demand; a Server owns connections — the gateway's stream
// protocol, and the replication sessions it hands the sender. Each round
// or connection handler stays in its own package; only starting, waking,
// stepping and stopping live here, written once.
package daemon

import (
	"errors"
	"net"
	"sync"
	"time"
)

// Loop runs a round function on its own goroutine after every clock tick
// and every Kick, until Stop. Kicks coalesce: any number arriving before
// the goroutine next wakes buy one round. A manual Loop starts no goroutine
// at all — deterministic harnesses drive its rounds with Step, so a seeded
// workload's device-operation sequence stays reproducible.
type Loop struct {
	round func() error
	kick  chan struct{} // capacity 1; nil for a manual loop, so Kick drops
	stop  chan struct{} // closed once, by the first Stop
	done  chan struct{} // closed when the goroutine has exited
	once  sync.Once
	err   error // first background round error; written only by the goroutine before done closes
}

// Start runs round after every tick (tick 0 means no clock: kicks only)
// and every Kick, on a goroutine Stop waits out.
func Start(round func() error, tick time.Duration) *Loop {
	l := &Loop{
		round: round,
		kick:  make(chan struct{}, 1),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	go l.run(tick)
	return l
}

// Manual returns a loop with no goroutine: Kick does nothing, Stop returns
// at once, and the owner runs rounds with Step.
func Manual(round func() error) *Loop {
	l := &Loop{round: round, stop: make(chan struct{}), done: make(chan struct{})}
	close(l.done)
	return l
}

// run parks with nothing held between rounds. A failed round is retried on
// the next wake-up; its error is kept for Stop only if it is the first.
func (l *Loop) run(tick time.Duration) {
	defer close(l.done)
	var clock <-chan time.Time
	if tick > 0 {
		t := time.NewTicker(tick)
		defer t.Stop()
		clock = t.C
	}
	for {
		select {
		case <-l.stop:
			return
		case <-clock:
		case <-l.kick:
		}
		if err := l.round(); err != nil && l.err == nil {
			l.err = err
		}
	}
}

// Kick asks for a round soon and reports whether this call queued the
// wake-up: false when one is already pending or the loop is manual. It
// never blocks, allocates or locks, so hot paths may call it freely.
func (l *Loop) Kick() bool {
	select {
	case l.kick <- struct{}{}:
		return true
	default:
		return false
	}
}

// Step runs one round synchronously on the caller's goroutine and returns
// its error. It is the manual loop's way to make progress.
func (l *Loop) Step() error { return l.round() }

// Stop halts the loop, waits for a round in flight to finish and the
// goroutine to exit, and returns the first error a background round
// returned (Step errors go to Step's caller instead). Safe to call
// repeatedly and concurrently: every call waits, and all return the same
// error.
func (l *Loop) Stop() error {
	l.once.Do(func() { close(l.stop) })
	<-l.done
	return l.err
}

// ErrClosed is returned by Serve on a server that has been closed.
var ErrClosed = errors.New("daemon: server closed")

// Server owns connections, accepted by its own loop (Serve) or handed over
// (Handle): each runs its handler, and Close tears every one down and
// waits for it. The zero value is ready to use.
type Server struct {
	// mu guards the listener and connection table; it is never held across
	// a handler or an Accept.
	mu       sync.Mutex
	listener net.Listener          // guarded by mu
	closed   bool                  // guarded by mu
	conns    map[net.Conn]struct{} // guarded by mu
	wg       sync.WaitGroup        // Serve itself and every handler
}

// Serve accepts connections on l until Close, running handle on each; the
// connection is closed when handle returns. Serve returns nil once Close
// has been called, or the listener's error if it fails first.
func (s *Server) Serve(l net.Listener, handle func(net.Conn)) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	s.listener = l
	s.wg.Add(1)
	s.mu.Unlock()
	defer s.wg.Done()
	for {
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		// The goroutine holds a count until Handle registers conn, so Close
		// waits for a connection accepted while it runs to be closed.
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.Handle(conn, handle)
		}()
	}
}

// Handle runs handle on conn, accepted by Serve or elsewhere, on the caller's
// goroutine. Registration shares a critical section with Close's sweep: Close
// closes conn and waits for handle, or conn comes later and just closes.
func (s *Server) Handle(conn net.Conn, handle func(net.Conn)) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		conn.Close()
		return
	}
	if s.conns == nil {
		s.conns = make(map[net.Conn]struct{})
	}
	s.conns[conn] = struct{}{}
	s.wg.Add(1)
	s.mu.Unlock()
	defer s.wg.Done()
	defer s.drop(conn)
	handle(conn)
}

func (s *Server) drop(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	conn.Close()
}

// Close stops accepting, closes every live connection, and waits for Serve
// and every handler to return. It returns the listener's Close error.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	l := s.listener
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	var err error
	if l != nil {
		err = l.Close()
	}
	s.wg.Wait()
	return err
}
