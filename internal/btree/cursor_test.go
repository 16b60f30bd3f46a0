package btree

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"postlob/internal/obs"
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

// TestCursorRunMatchesRange interleaves seeded random Inserts, Deletes and
// DeleteIfs with cursor runs that mostly start at the cursor's next key and
// sometimes jump, mixed with single-key lookups on the same cursor, and
// checks every run against Tree.Range.
func TestCursorRunMatchesRange(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tree := newTestTree(t, 128)
		c := tree.Cursor()
		const keys = 1500
		var run []Entry
		next := uint64(0)
		for step := 0; step < 2000; step++ {
			for i := 0; i < 3; i++ {
				k := uint64(rng.Intn(keys))
				if rng.Intn(3) > 0 {
					if err := tree.Insert(k, uint64(rng.Intn(3*cursorDups))); err != nil {
						t.Fatal(err)
					}
					continue
				}
				vals, err := tree.Lookup(k)
				if err != nil {
					t.Fatal(err)
				}
				if len(vals) > 0 {
					v := vals[rng.Intn(len(vals))]
					if err := tree.DeleteIf(k, v, func() (bool, error) { return rng.Intn(2) == 0, nil }); err != nil {
						t.Fatal(err)
					}
				}
			}
			lo := next
			if rng.Intn(8) == 0 {
				lo = uint64(rng.Intn(keys + 10))
			}
			if rng.Intn(4) == 0 {
				if _, err := c.Lookup(lo); err != nil {
					t.Fatal(err)
				}
				next = lo + 1
				continue
			}
			hi := lo + uint64(rng.Intn(3*LeafCapacity/cursorDups))
			if rng.Intn(16) == 0 && lo > 1 {
				hi = lo - 2 // empty: the cursor must not move to hi+1
			}
			var err error
			if run, err = c.Run(lo, hi, run[:0]); err != nil {
				t.Fatalf("seed %d step %d: run [%d, %d]: %v", seed, step, lo, hi, err)
			}
			var want []Entry
			if err := tree.Range(lo, hi, func(k, v uint64) (bool, error) {
				want = append(want, Entry{k, v})
				return true, nil
			}); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(run, want) {
				t.Fatalf("seed %d step %d: run [%d, %d] = %d entries, range %d", seed, step, lo, hi, len(run), len(want))
			}
			next = hi + 1
		}
		if h, _ := tree.Height(); h < 2 {
			t.Fatalf("seed %d: tree never split (height %d)", seed, h)
		}
	}
}

// TestCursorRunPinsEachLeafOnce: back-to-back runs over an unchanged tree
// descend once and pin each leaf they cover once (a leaf two runs share, at
// their boundary, once per run).
func TestCursorRunPinsEachLeafOnce(t *testing.T) {
	tree := newTestTree(t, 64)
	const n = 3 * LeafCapacity
	for i := uint64(0); i < n; i++ {
		if err := tree.Insert(i, i+7); err != nil {
			t.Fatal(err)
		}
	}
	c := tree.Cursor()
	if _, err := c.Lookup(n + 1); err != nil { // park the cursor elsewhere
		t.Fatal(err)
	}
	before := obs.Snapshot()
	descents := obsDescents.Load()
	var run []Entry
	const runs = 4
	for r := uint64(0); r < runs; r++ {
		lo, hi := r*n/runs, (r+1)*n/runs-1
		var err error
		if run, err = c.Run(lo, hi, run[:0]); err != nil {
			t.Fatal(err)
		}
		if uint64(len(run)) != hi-lo+1 || run[0] != (Entry{lo, lo + 7}) || run[len(run)-1] != (Entry{hi, hi + 7}) {
			t.Fatalf("run [%d, %d] = %d entries from %v", lo, hi, len(run), run[0])
		}
	}
	lookups := obs.Snapshot().CounterDelta(before, "pool.lookups")
	if d := obsDescents.Load() - descents; d != 1 {
		t.Fatalf("%d adjacent runs descended %d times, want 1", runs, d)
	}
	h, err := tree.Height()
	if err != nil {
		t.Fatal(err)
	}
	// One descent reads the metapage and one node per level; the leaves
	// are pinned once each, plus once more at each boundary between runs.
	firsts := leafFirstKeys(t, tree)
	leaves := int64(len(firsts))
	if want := 1 + int64(h) + leaves + runs - 1; lookups != want {
		t.Fatalf("%d runs over %d leaves of a %d-level tree took %d page lookups, want %d", runs, leaves, h, lookups, want)
	}

	// An empty run must not move the cursor: parked at hi+1 in the leaf
	// that holds lo, it would miss hi+1's entries in the leaf before.
	b := firsts[1]
	if run, err = c.Run(b, b-2, run[:0]); err != nil || len(run) != 0 {
		t.Fatalf("empty run = %v, %v", run, err)
	}
	if run, err = c.Run(b-1, b-1, run[:0]); err != nil || len(run) != 1 || run[0] != (Entry{b - 1, b + 6}) {
		t.Fatalf("run [%d, %d] after an empty run = %v, %v", b-1, b-1, run, err)
	}
}

// leafFirstKeys walks tree's leaf chain and returns each leaf's first key.
func leafFirstKeys(t *testing.T, tree *Tree) []uint64 {
	t.Helper()
	blk, err := tree.descendToLeaf(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var firsts []uint64
	for blk != noSibling {
		f, err := tree.getBlock(blk)
		if err != nil {
			t.Fatal(err)
		}
		k, _, _ := nodeEntry(f.Page(), 0)
		firsts = append(firsts, k)
		blk = nodeRight(f.Page())
		f.Release()
	}
	return firsts
}
