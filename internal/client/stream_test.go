package client

import (
	"bytes"
	"net"
	"strings"
	"testing"
	"time"

	"postlob/internal/gateway"
)

// fakeGateway is the server side of a net.Pipe: it answers the client's
// Hello with a one-frame window, reads the write request and its first data
// frame, then replies with a credit frame carrying grant. It reports any
// protocol surprise on the returned channel.
func fakeGateway(conn net.Conn, grant []byte) <-chan error {
	errc := make(chan error, 1)
	send := func(f *gateway.Frame) error {
		b, err := gateway.EncodeFrame(f)
		if err == nil {
			_, err = conn.Write(b)
		}
		return err
	}
	go func() {
		defer close(errc)
		dec, enc := gateway.NewMsgDecoder(), gateway.NewMsgEncoder()
		f, err := gateway.ReadFrame(conn)
		if err != nil {
			errc <- err
			return
		}
		var hello gateway.Hello
		if err := dec.Decode(f.Payload, &hello); err != nil {
			errc <- err
			return
		}
		p, err := enc.Encode(&gateway.Hello{Proto: gateway.Proto, Chunk: 4096, Window: 1})
		if err != nil {
			errc <- err
			return
		}
		if err := send(&gateway.Frame{Kind: gateway.KindHello, Payload: p}); err != nil {
			errc <- err
			return
		}
		req, err := gateway.ReadFrame(conn) // the OpWrite request
		if err != nil {
			errc <- err
			return
		}
		if _, err := gateway.ReadFrame(conn); err != nil { // first data frame
			errc <- err
			return
		}
		if err := send(&gateway.Frame{Kind: gateway.KindCredit, Stream: req.Stream, Payload: grant}); err != nil {
			errc <- err
		}
	}()
	return errc
}

// TestStreamRejectsBadCreditGrant: a credit grant the gateway itself would
// refuse — zero, over MaxWindow, or a malformed payload — fails the client
// connection as a torn frame instead of silently resizing the window.
func TestStreamRejectsBadCreditGrant(t *testing.T) {
	for name, grant := range map[string][]byte{
		"zero":      gateway.CreditPayload(0),
		"oversize":  gateway.CreditPayload(gateway.MaxWindow + 1),
		"malformed": {1, 0, 0},
	} {
		t.Run(name, func(t *testing.T) {
			cconn, sconn := net.Pipe()
			defer sconn.Close()
			errc := fakeGateway(sconn, grant)
			s, err := newStream(cconn)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()

			// Three chunks against a one-frame window: the second waits on
			// the server's grant.
			done := make(chan error, 1)
			go func() {
				_, err := DanglingStreamObject(s, 1).Write(bytes.Repeat([]byte{7}, 3*4096))
				done <- err
			}()
			select {
			case err := <-done:
				if err == nil || !strings.Contains(err.Error(), "torn frame") {
					t.Fatalf("write after bad grant = %v, want a torn-frame error", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("write hung on a bad credit grant")
			}
			if err := <-errc; err != nil {
				t.Fatalf("fake gateway: %v", err)
			}
			if _, err := s.Now(); err == nil || !strings.Contains(err.Error(), "torn frame") {
				t.Fatalf("connection still usable after bad grant: %v", err)
			}
		})
	}
}
