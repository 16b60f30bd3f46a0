package main

import (
	"bytes"
	"fmt"
	"io"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sync"
	"syscall"
	"testing"
	"time"

	"postlob"
	"postlob/internal/adt"
	"postlob/internal/client"
	"postlob/internal/txn"
)

// syncBuffer collects a child's log output while the test polls it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var servingRE = regexp.MustCompile(`serving .* on (\S+)`)

// buildLobjserve builds the command into a temporary directory.
func buildLobjserve(t *testing.T) string {
	t.Helper()
	if runtime.GOOS == "windows" {
		t.Skip("no SIGTERM on windows")
	}
	gotool := filepath.Join(runtime.GOROOT(), "bin", "go")
	bin := filepath.Join(t.TempDir(), "lobjserve")
	if out, err := exec.Command(gotool, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	return bin
}

// server is one running lobjserve child.
type server struct {
	cmd    *exec.Cmd
	logs   *syncBuffer
	exited chan error
	addr   string // the stream port, read from its log
}

// startLobjserve runs bin with args and no metrics listener, and waits for
// it to report its stream address. The child is killed at the end of the
// test if it is still running.
func startLobjserve(t *testing.T, bin string, args ...string) *server {
	t.Helper()
	srv := &server{
		cmd:    exec.Command(bin, append(args, "-metrics", "")...),
		logs:   &syncBuffer{},
		exited: make(chan error, 1),
	}
	srv.cmd.Stderr = srv.logs
	if err := srv.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() { srv.exited <- srv.cmd.Wait() }()
	t.Cleanup(func() {
		if srv.cmd.ProcessState == nil {
			srv.cmd.Process.Kill()
			<-srv.exited
		}
	})
	for deadline := time.Now().Add(10 * time.Second); srv.addr == ""; time.Sleep(10 * time.Millisecond) {
		if m := servingRE.FindStringSubmatch(srv.logs.String()); m != nil {
			srv.addr = m[1]
		} else if time.Now().After(deadline) {
			t.Fatalf("server did not come up:\n%s", srv.logs.String())
		}
	}
	return srv
}

// term sends SIGTERM and requires the server to exit 0 within 10 s.
func (srv *server) term(t *testing.T) {
	t.Helper()
	if err := srv.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-srv.exited:
		if err != nil {
			t.Fatalf("server exited with %v after SIGTERM:\n%s", err, srv.logs.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("server still running 10 s after SIGTERM:\n%s", srv.logs.String())
	}
}

// commitDoc creates class DOC on the server at addr and commits one object
// holding body under name "a". It returns the object and the commit
// timestamp.
func commitDoc(t *testing.T, addr, body string) (adt.ObjectRef, txn.TS) {
	t.Helper()
	s, err := client.DialStream(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	var res *client.Result
	for _, q := range []string{
		`create DOC (name = text, body = large-object)`,
		`append DOC (name = "a", body = newlobj(""))`,
		fmt.Sprintf(`retrieve (n = lobj_write(DOC.body, 0, %q)) where DOC.name = "a"`, body),
		`retrieve (b = DOC.body) where DOC.name = "a"`,
	} {
		if res, err = s.Exec(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	v, ok := res.First()
	if !ok || v.Kind != adt.KindObject {
		t.Fatalf("DOC.body = %v, want an object", v)
	}
	ts, err := s.Commit()
	if err != nil {
		t.Fatal(err)
	}
	return v.Obj, ts
}

// TestSIGTERMClosesCleanly builds lobjserve, runs it with its default
// durability mode, commits an object over the stream port and sends SIGTERM,
// the signal a service manager or a plain kill sends. The server must exit
// 0 through its deferred Close, and the directory must read the object back.
func TestSIGTERMClosesCleanly(t *testing.T) {
	bin := buildLobjserve(t)
	dir := filepath.Join(t.TempDir(), "db")
	srv := startLobjserve(t, bin, "-db", dir, "-addr", "127.0.0.1:0")
	commitDoc(t, srv.addr, "survives a SIGTERM")
	srv.term(t)

	db, err := postlob.Open(dir, postlob.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tx := db.Begin()
	defer tx.Abort()
	res, err := db.Exec(tx, `retrieve (x = lobj_read(DOC.body, 0, 100)) where DOC.name = "a"`)
	if err != nil {
		t.Fatalf("reopened directory: %v", err)
	}
	defer res.Close()
	if v, ok := res.First(); !ok || v.Str != "survives a SIGTERM" {
		t.Fatalf("reopened directory reads %v, want the committed object", v)
	}
}

// TestReplicaOnPrimaryStreamPort runs the shipped binary as a -wal primary
// and a -replica-of replica pointed at the primary's -addr, the one port
// both clients and replicas use. An object committed on the primary over
// the stream protocol must read back, as of its commit, from the replica's
// stream port; then both servers must exit 0 on SIGTERM, replica first.
func TestReplicaOnPrimaryStreamPort(t *testing.T) {
	bin := buildLobjserve(t)
	primary := startLobjserve(t, bin, "-db", filepath.Join(t.TempDir(), "primary"), "-addr", "127.0.0.1:0", "-wal")
	replica := startLobjserve(t, bin, "-db", filepath.Join(t.TempDir(), "replica"), "-addr", "127.0.0.1:0",
		"-replica-of", primary.addr)

	const body = "shipped over the primary's stream port"
	ref, ts := commitDoc(t, primary.addr, body)

	r, err := client.DialStream(replica.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		now, err := r.Now()
		if err != nil {
			t.Fatal(err)
		}
		if now >= ts {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica at timestamp %d 10 s after the primary committed %d:\n%s", now, ts, replica.logs.String())
		}
	}
	h, err := r.OpenAsOf(ts, ref)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(h)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != body {
		t.Fatalf("replica reads %q, want %q", got, body)
	}
	h.Close()
	r.Close()

	replica.term(t)
	primary.term(t)
}
