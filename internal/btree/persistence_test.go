package btree

import (
	"errors"
	"testing"

	"postlob/internal/buffer"
	"postlob/internal/page"
	"postlob/internal/storage"
)

// TestDiskPersistence flushes a tree to the disk manager, reopens it
// through a cold pool, and checks structure and contents survive.
func TestDiskPersistence(t *testing.T) {
	dir := t.TempDir()
	build := func() {
		sw := storage.NewSwitch()
		disk, err := storage.NewDiskManager(dir, storage.DeviceModel{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		sw.Register(storage.Disk, disk)
		buf := buffer.NewPool(64, sw, nil)
		tree, err := Create(buf, storage.Disk, "persist_idx", Config{})
		if err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < 3000; i++ {
			if err := tree.Insert(i, i*3); err != nil {
				t.Fatal(err)
			}
		}
		// A few deletions so the reopened tree reflects mutation history.
		for i := uint64(0); i < 3000; i += 10 {
			if err := tree.Delete(i, i*3); err != nil {
				t.Fatal(err)
			}
		}
		if err := flushTree(tree); err != nil {
			t.Fatal(err)
		}
		if err := sw.Close(); err != nil {
			t.Fatal(err)
		}
	}
	build()

	// Cold reopen.
	sw := storage.NewSwitch()
	disk, err := storage.NewDiskManager(dir, storage.DeviceModel{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sw.Register(storage.Disk, disk)
	buf := buffer.NewPool(64, sw, nil)
	tree, err := Open(buf, storage.Disk, "persist_idx", Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Check(); err != nil {
		t.Fatal(err)
	}
	n, err := tree.Len()
	if err != nil || n != 2700 {
		t.Fatalf("Len = %d, %v (want 2700)", n, err)
	}
	vals, err := tree.Lookup(11)
	if err != nil || len(vals) != 1 || vals[0] != 33 {
		t.Fatalf("Lookup(11) = %v, %v", vals, err)
	}
	if vals, _ := tree.Lookup(10); len(vals) != 0 {
		t.Fatalf("deleted key found: %v", vals)
	}
	h, err := tree.Height()
	if err != nil || h < 2 {
		t.Fatalf("Height = %d, %v", h, err)
	}
	if tree.Name() != "persist_idx" {
		t.Fatalf("Name = %s", tree.Name())
	}
	sw.Close()
}

// TestDropRemovesStorage verifies Drop unlinks the relation.
func TestDropRemovesStorage(t *testing.T) {
	sw := storage.NewSwitch()
	mem := storage.NewMemManager(storage.DeviceModel{}, nil)
	sw.Register(storage.Mem, mem)
	buf := buffer.NewPool(16, sw, nil)
	tree, err := Create(buf, storage.Mem, "doomed", Config{})
	if err != nil {
		t.Fatal(err)
	}
	tree.Insert(1, 1)
	if err := tree.Drop(); err != nil {
		t.Fatal(err)
	}
	if mem.Exists("doomed") {
		t.Fatal("relation survives Drop")
	}
}

// flushTree writes the tree's dirty pages out and syncs the device.
// Production code checkpoints through core so the WAL flush ceiling is
// honored (see the walorder analyzer); tests flush directly.
func flushTree(t *Tree) error {
	if err := t.buf.FlushRel(t.rel.SM(), t.rel.Name()); err != nil {
		return err
	}
	mgr, err := t.buf.Switch().Get(t.rel.SM())
	if err != nil {
		return err
	}
	return mgr.Sync(t.rel.Name())
}

// TestOpenersShareOneHandle: every opener of a tree gets the one handle
// installed on its buffer-pool descriptor, Create's or the first Open's, so
// Tree.mu excludes all of its readers from structural changes. Once the
// relation is unlinked and created again under its name, the name yields a
// new handle, and the old one fails with buffer.ErrDropped.
func TestOpenersShareOneHandle(t *testing.T) {
	sw := storage.NewSwitch()
	sw.Register(storage.Mem, storage.NewMemManager(storage.DeviceModel{}, nil))
	buf := buffer.NewPool(16, sw, nil)
	created, err := Create(buf, storage.Mem, "idx", Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := created.Insert(1, 10); err != nil {
		t.Fatal(err)
	}
	if opened, err := Open(buf, storage.Mem, "idx", Config{}); err != nil || opened != created {
		t.Fatalf("Open after Create = %p, %v; want Create's handle %p", opened, err, created)
	}
	if err := flushTree(created); err != nil {
		t.Fatal(err)
	}

	// A second pool over the same storage: its first Open installs the
	// handle, and the next one shares it.
	buf2 := buffer.NewPool(16, sw, nil)
	a, err := Open(buf2, storage.Mem, "idx", Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(buf2, storage.Mem, "idx", Config{})
	if err != nil || a != b {
		t.Fatalf("two Opens = %p and %p (%v); want one handle", a, b, err)
	}

	if err := buf.Unlink(storage.Mem, "idx"); err != nil {
		t.Fatal(err)
	}
	again, err := Create(buf, storage.Mem, "idx", Config{})
	if err != nil {
		t.Fatal(err)
	}
	opened, err := Open(buf, storage.Mem, "idx", Config{})
	if err != nil || opened != again || opened == created {
		t.Fatalf("Open after re-create = %p, %v; want the new handle %p, not the old %p", opened, err, again, created)
	}
	if _, err := created.Lookup(1); !errors.Is(err, buffer.ErrDropped) {
		t.Fatalf("old handle Lookup = %v, want buffer.ErrDropped", err)
	}
}

// A tree whose metapage lacks the magic fails every Open, not only the one
// that installed the handle.
func TestOpenBadMetapageFailsEveryOpen(t *testing.T) {
	mem := storage.NewMemManager(storage.DeviceModel{}, nil)
	sw := storage.NewSwitch()
	sw.Register(storage.Mem, mem)
	if err := mem.Create("idx"); err != nil {
		t.Fatal(err)
	}
	if err := mem.WriteBlock("idx", 0, make([]byte, page.Size)); err != nil {
		t.Fatal(err)
	}
	buf := buffer.NewPool(16, sw, nil)
	for i := 0; i < 3; i++ {
		if _, err := Open(buf, storage.Mem, "idx", Config{}); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Open #%d = %v, want ErrCorrupt", i+1, err)
		}
	}
}
