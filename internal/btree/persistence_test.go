package btree

import (
	"testing"

	"postlob/internal/buffer"
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
