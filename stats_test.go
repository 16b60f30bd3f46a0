package postlob

import (
	"bytes"
	"testing"
	"time"
)

func TestStatsCounters(t *testing.T) {
	var clock Clock
	db, err := Open(t.TempDir(), Options{
		Clock:           &clock,
		BufferPoolPages: 16,
		DiskModel:       DeviceModel{Seek: time.Millisecond, PerByte: time.Nanosecond},
		WormConfig:      &WormConfig{CacheBlocks: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	var ref ObjectRef
	if err := db.RunInTxn(func(tx *Txn) error {
		r, obj, err := db.LargeObjects().Create(tx, CreateOptions{Kind: FChunk})
		if err != nil {
			return err
		}
		ref = r
		obj.Write(bytes.Repeat([]byte{1}, 500_000))
		return obj.Close()
	}); err != nil {
		t.Fatal(err)
	}
	// Read the object's first chunk back from a cold pool: a deterministic
	// buffer miss (a write-only workload's miss count depends on which pages
	// the background writer happened to keep resident). Writing 500 KB
	// through a 16-page pool does not evict the first chunk's page by
	// itself: that page also holds the object's size record, which Close
	// rewrites last, so whether it stayed resident depended on when the
	// background writer cleaned it.
	if err := db.LargeObjects().EvictFromPool(ref); err != nil {
		t.Fatal(err)
	}
	if err := db.RunInTxn(func(tx *Txn) error {
		obj, err := db.LargeObjects().Open(tx, ref)
		if err != nil {
			return err
		}
		if _, err := obj.Read(make([]byte, 100)); err != nil {
			return err
		}
		return obj.Close()
	}); err != nil {
		t.Fatal(err)
	}
	s := db.Stats()
	if s.BufferHits == 0 || s.BufferMisses == 0 {
		t.Fatalf("buffer stats = %+v", s)
	}
	if s.VirtualElapsed == 0 {
		t.Fatalf("virtual clock idle: %+v", s)
	}
}
