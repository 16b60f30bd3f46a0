package main

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sync"
	"syscall"
	"testing"
	"time"

	"postlob"
	"postlob/internal/client"
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

// TestSIGTERMClosesCleanly builds lobjserve, runs it with its default
// durability mode, commits an object over the stream port and sends SIGTERM,
// the signal a service manager or a plain kill sends. The server must exit
// 0 through its deferred Close, and the directory must read the object back.
func TestSIGTERMClosesCleanly(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("no SIGTERM on windows")
	}
	gotool := filepath.Join(runtime.GOROOT(), "bin", "go")
	bin := filepath.Join(t.TempDir(), "lobjserve")
	if out, err := exec.Command(gotool, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	dir := filepath.Join(t.TempDir(), "db")
	var logs syncBuffer
	cmd := exec.Command(bin, "-db", dir, "-addr", "127.0.0.1:0", "-metrics", "")
	cmd.Stderr = &logs
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	defer func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			<-exited
		}
	}()

	var addr string
	for deadline := time.Now().Add(10 * time.Second); addr == ""; time.Sleep(10 * time.Millisecond) {
		if m := servingRE.FindStringSubmatch(logs.String()); m != nil {
			addr = m[1]
		} else if time.Now().After(deadline) {
			t.Fatalf("server did not come up:\n%s", logs.String())
		}
	}

	s, err := client.DialStream(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		`create DOC (name = text, body = large-object)`,
		`append DOC (name = "a", body = newlobj(""))`,
		`retrieve (n = lobj_write(DOC.body, 0, "survives a SIGTERM")) where DOC.name = "a"`,
	} {
		if _, err := s.Exec(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("server exited with %v after SIGTERM:\n%s", err, logs.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("server still running 10 s after SIGTERM:\n%s", logs.String())
	}

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
