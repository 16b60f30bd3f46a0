package btree

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// TestCursorMatchesLookup interleaves seeded random Inserts (enough to split
// leaves and the root, with duplicate runs longer than the cursor's fixed
// array), Deletes and DeleteIfs with cursor lookups that mostly step to the
// next key and sometimes jump, and checks every cursor answer against
// Tree.Lookup.
func TestCursorMatchesLookup(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tree := newTestTree(t, 128)
		c := tree.Cursor()
		const keys = 1500
		key := uint64(0)
		for step := 0; step < 12000; step++ {
			k := uint64(rng.Intn(keys))
			switch r := rng.Intn(10); {
			case r < 3:
				if err := tree.Insert(k, uint64(rng.Intn(3*cursorDups))); err != nil {
					t.Fatal(err)
				}
			case r < 5:
				vals, err := tree.Lookup(k)
				if err != nil {
					t.Fatal(err)
				}
				if len(vals) == 0 {
					break
				}
				v := vals[rng.Intn(len(vals))]
				if r == 3 {
					err = tree.Delete(k, v)
				} else {
					err = tree.DeleteIf(k, v, func() (bool, error) { return rng.Intn(2) == 0, nil })
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			if rng.Intn(8) == 0 {
				key = uint64(rng.Intn(keys + 10))
			} else {
				key++
			}
			got, err := c.Lookup(key)
			if err != nil {
				t.Fatalf("seed %d step %d: cursor lookup %d: %v", seed, step, key, err)
			}
			want, err := tree.Lookup(key)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d: cursor lookup %d = %v, tree lookup %v", seed, step, key, got, want)
			}
		}
		if h, _ := tree.Height(); h < 2 {
			t.Fatalf("seed %d: tree never split (height %d)", seed, h)
		}
		if err := tree.Check(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCursorDescendsOnce: stepping key by key across many leaves of an
// unchanged tree costs one descent; any change sends the next lookup back
// through the root.
func TestCursorDescendsOnce(t *testing.T) {
	tree := newTestTree(t, 64)
	const n = 3 * LeafCapacity
	for i := uint64(0); i < n; i++ {
		if err := tree.Insert(i, i+7); err != nil {
			t.Fatal(err)
		}
	}
	c := tree.Cursor()
	before := obsDescents.Load()
	for i := uint64(0); i < n+2; i++ { // two past the end: still no descent
		vals, err := c.Lookup(i)
		if err != nil {
			t.Fatal(err)
		}
		if want := i < n; (len(vals) == 1 && vals[0] == i+7) != want {
			t.Fatalf("lookup %d = %v", i, vals)
		}
	}
	if d := obsDescents.Load() - before; d != 1 {
		t.Fatalf("sequential walk over %d keys descended %d times, want 1", n, d)
	}
	if err := tree.Insert(n+2, 1); err != nil {
		t.Fatal(err)
	}
	before = obsDescents.Load()
	if vals, err := c.Lookup(n + 2); err != nil || len(vals) != 1 {
		t.Fatalf("lookup after insert = %v, %v", vals, err)
	}
	if d := obsDescents.Load() - before; d != 1 {
		t.Fatalf("lookup after a change descended %d times, want 1", d)
	}
}

// TestCursorConcurrentWriter runs a cursor reader against a writer that
// keeps inserting and deleting (and splitting leaves) under it. Even keys
// never change and must always read back exactly; odd keys churn. Run with
// -race.
func TestCursorConcurrentWriter(t *testing.T) {
	tree := newTestTree(t, 128)
	const keys = 2000
	for k := uint64(0); k < keys; k += 2 {
		if err := tree.Insert(k, k*3); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			k := uint64(rng.Intn(keys/2))*2 + 1
			if err := tree.Insert(k, uint64(i)); err != nil {
				t.Error(err)
				return
			}
			if i%2 == 0 {
				if err := tree.Delete(k, uint64(i)); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	c := tree.Cursor()
	for pass := 0; pass < 20; pass++ {
		for k := uint64(0); k < keys; k++ {
			vals, err := c.Lookup(k)
			if err != nil {
				t.Fatal(err)
			}
			if k%2 == 0 && (len(vals) != 1 || vals[0] != k*3) {
				t.Fatalf("pass %d: stable key %d = %v", pass, k, vals)
			}
		}
	}
	close(stop)
	wg.Wait()
	if err := tree.Check(); err != nil {
		t.Fatal(err)
	}
}
