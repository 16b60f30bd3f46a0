package heap

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"postlob/internal/buffer"
	"postlob/internal/page"
	"postlob/internal/storage"
	"postlob/internal/txn"
)

// Targeted vacuum: VacuumBelow visits only blocks in the stamped bitmap and
// falls back to a full walk on a handle's first call and after an abort.
// These tests hold it to the behaviour of the walk-everything vacuum it
// replaced, which survives here as the reference: forcing walked to false
// before every call.

// liveTIDs returns every occupied slot of the relation, visible or not.
func liveTIDs(t *testing.T, r *Relation) []TID {
	t.Helper()
	n, err := r.NBlocks()
	if err != nil {
		t.Fatal(err)
	}
	var out []TID
	for blk := storage.BlockNum(0); blk < n; blk++ {
		f, err := r.pool.Buf.Get(buffer.Tag{SM: r.sm, Rel: r.name, Blk: blk})
		if err != nil {
			t.Fatal(err)
		}
		f.RLockContent()
		if p := f.Page(); p.IsInitialized() {
			for s := 0; s < p.NumSlots(); s++ {
				if !p.ItemIsDead(page.SlotNum(s)) {
					out = append(out, TID{Blk: blk, Slot: page.SlotNum(s)})
				}
			}
		}
		f.RUnlockContent()
		f.Release()
	}
	return out
}

// stampedCount returns how many bits the relation's bitmap has set.
func stampedCount(r *Relation) int {
	n, _ := r.NBlocks()
	return len(r.stampedBlocks(n))
}

// vacuumSide is one of the two stores the property test drives in lockstep.
type vacuumSide struct {
	p      *Pool
	r      *Relation
	open   []*txn.Txn // transactions in flight, oldest first
	stamps int        // Delete calls since this side's previous vacuum
}

func TestTargetedVacuumMatchesFullWalk(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			newSide := func() *vacuumSide {
				p := newTestPool(t, 256)
				return &vacuumSide{p: p, r: mustCreate(t, p, "prop")}
			}
			targeted, reference := newSide(), newSide()
			sides := []*vacuumSide{targeted, reference}

			// live holds the committed, undeleted TIDs; the two sides place
			// tuples identically as long as their vacuums reclaim identically,
			// which is the property, so one list serves both.
			var live []TID
			pending := map[*txn.Txn][]TID{} // keyed by the targeted side's txn
			pendingDel := map[*txn.Txn][]int{}

			both := func(fn func(s *vacuumSide, i int)) {
				for i, s := range sides {
					fn(s, i)
				}
			}
			payload := func() []byte {
				b := make([]byte, 40+rng.Intn(3000))
				rng.Read(b)
				return b
			}
			for step := 0; step < 400; step++ {
				switch op := rng.Intn(20); {
				case op < 3 && len(targeted.open) < 3: // begin a writer
					both(func(s *vacuumSide, _ int) { s.open = append(s.open, s.p.Mgr.Begin()) })
				case op < 9 && len(targeted.open) > 0: // insert
					k, data := rng.Intn(len(targeted.open)), payload()
					var tids [2]TID
					both(func(s *vacuumSide, i int) {
						tid, err := s.r.Insert(s.open[k], data)
						if err != nil {
							t.Fatal(err)
						}
						tids[i] = tid
					})
					if tids[0] != tids[1] {
						t.Fatalf("step %d: insert placed at %v targeted, %v reference", step, tids[0], tids[1])
					}
					pending[targeted.open[k]] = append(pending[targeted.open[k]], tids[0])
				case op < 13 && len(targeted.open) > 0 && len(live) > 0: // replace or delete
					k, victim := rng.Intn(len(targeted.open)), rng.Intn(len(live))
					tx := targeted.open[k]
					taken := false
					for _, ds := range pendingDel {
						for _, d := range ds {
							taken = taken || d == victim
						}
					}
					if taken {
						continue
					}
					replace, data := rng.Intn(2) == 0, payload()
					var tids [2]TID
					var errs [2]error
					both(func(s *vacuumSide, i int) {
						if replace {
							tids[i], errs[i] = s.r.Replace(s.open[k], live[victim], data)
						} else {
							errs[i] = s.r.Delete(s.open[k], live[victim])
						}
						if errs[i] == nil {
							s.stamps++
						}
					})
					if tids[0] != tids[1] || (errs[0] == nil) != (errs[1] == nil) {
						t.Fatalf("step %d: targeted %v %v, reference %v %v", step, tids[0], errs[0], tids[1], errs[1])
					}
					if errs[0] != nil {
						// The victim committed after this writer's snapshot.
						if !errors.Is(errs[0], ErrNotVisible) {
							t.Fatalf("step %d: %v", step, errs[0])
						}
						continue
					}
					pendingDel[tx] = append(pendingDel[tx], victim)
					if replace {
						pending[tx] = append(pending[tx], tids[0])
					}
				case op < 16 && len(targeted.open) > 0: // commit or abort
					k, commit := rng.Intn(len(targeted.open)), rng.Intn(3) > 0
					tx := targeted.open[k]
					both(func(s *vacuumSide, _ int) {
						if commit {
							if _, err := s.open[k].Commit(); err != nil {
								t.Fatal(err)
							}
						} else {
							s.open[k].Abort()
						}
						s.open = append(s.open[:k:k], s.open[k+1:]...)
					})
					if commit {
						dead := map[int]bool{}
						for _, d := range pendingDel[tx] {
							dead[d] = true
						}
						kept := live[:0:0]
						remap := map[int]int{}
						for i, tid := range live {
							if !dead[i] {
								remap[i] = len(kept)
								kept = append(kept, tid)
							}
						}
						for other, ds := range pendingDel {
							if other == tx {
								continue
							}
							for j, d := range ds {
								ds[j] = remap[d]
							}
						}
						live = append(kept, pending[tx]...)
					}
					delete(pending, tx)
					delete(pendingDel, tx)
				case op == 16: // close and reopen: the bitmap is not persisted
					both(func(s *vacuumSide, _ int) {
						s.p.forget(s.r.sm, s.r.name)
						r, err := Open(s.p, s.r.sm, s.r.name)
						if err != nil {
							t.Fatal(err)
						}
						s.r = r
					})
				default: // a vacuum round
					keepHistory := rng.Intn(4) == 0
					var removed [2]int
					both(func(s *vacuumSide, i int) {
						if s == reference {
							s.r.walked = false // the walk-everything vacuum
						}
						n, _ := s.r.NBlocks()
						carried := stampedCount(s.r)
						visited, walks := obsVacBlocksVisited.Load(), obsVacFullWalks.Load()
						var err error
						removed[i], err = s.r.Vacuum(keepHistory)
						if err != nil {
							t.Fatal(err)
						}
						visited = obsVacBlocksVisited.Load() - visited
						walks = obsVacFullWalks.Load() - walks
						if bound := int64(s.stamps+carried) + walks*int64(n); visited > bound {
							t.Fatalf("step %d: visited %d blocks; %d stamps since the last round, %d bits carried over, %d full walks of %d blocks",
								step, visited, s.stamps, carried, walks, n)
						}
						s.stamps = 0
					})
					if removed[0] != removed[1] {
						t.Fatalf("step %d (keepHistory=%v): targeted vacuum reclaimed %d, full walk %d", step, keepHistory, removed[0], removed[1])
					}
					a, b := liveTIDs(t, targeted.r), liveTIDs(t, reference.r)
					if fmt.Sprint(a) != fmt.Sprint(b) {
						t.Fatalf("step %d: survivors differ\ntargeted:  %v\nreference: %v", step, a, b)
					}
				}
			}
		})
	}
}

// An aborted insert leaves debris no stamp points at; the abort count is what
// sends the next round over the whole relation to find it.
func TestVacuumAbortedInsertWithNoStamp(t *testing.T) {
	p := newTestPool(t, 16)
	r := mustCreate(t, p, "emp")
	mustInsertCommitted(t, p, r, "keep")
	if n, err := r.Vacuum(false); err != nil || n != 0 {
		t.Fatalf("first round = %d, %v", n, err)
	}
	ab := p.Mgr.Begin()
	if _, err := r.Insert(ab, []byte("debris")); err != nil {
		t.Fatal(err)
	}
	ab.Abort()
	if got := stampedCount(r); got != 0 {
		t.Fatalf("%d blocks stamped by an insert", got)
	}
	walks := obsVacFullWalks.Load()
	n, err := r.Vacuum(false)
	if err != nil || n != 1 {
		t.Fatalf("round after the abort reclaimed %d, %v; want the aborted insert", n, err)
	}
	if d := obsVacFullWalks.Load() - walks; d != 1 {
		t.Fatalf("full walks after an abort = %d, want 1", d)
	}
	// With the count standing still the next round is targeted again.
	walks = obsVacFullWalks.Load()
	if n, err := r.Vacuum(false); err != nil || n != 0 {
		t.Fatalf("idle round = %d, %v", n, err)
	}
	if d := obsVacFullWalks.Load() - walks; d != 0 {
		t.Fatalf("idle round walked the relation %d times", d)
	}
}

// With history kept, superseded versions are never reclaimable: once the
// relation has been walked and nothing aborts, a round visits no block,
// however many stamps accumulate.
func TestVacuumKeepHistoryVisitsNothing(t *testing.T) {
	p := newTestPool(t, 64)
	r := mustCreate(t, p, "emp")
	tids := make([]TID, 20)
	for i := range tids {
		tids[i] = mustInsertCommitted(t, p, r, fmt.Sprintf("row %d %s", i, make([]byte, 1000)))
	}
	if _, err := r.Vacuum(true); err != nil {
		t.Fatal(err)
	}
	for i, tid := range tids {
		tx := p.Mgr.Begin()
		if _, err := r.Replace(tx, tid, []byte(fmt.Sprintf("row %d, again", i))); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if stampedCount(r) == 0 {
		t.Fatal("replaces stamped no block")
	}
	visited := obsVacBlocksVisited.Load()
	if n, err := r.Vacuum(true); err != nil || n != 0 {
		t.Fatalf("keep-history round = %d, %v", n, err)
	}
	if d := obsVacBlocksVisited.Load() - visited; d != 0 {
		t.Fatalf("keep-history round with no aborts visited %d blocks", d)
	}
	// The stamps were only deferred, not lost: surrendering history later
	// reclaims every superseded version through the bitmap alone.
	walks := obsVacFullWalks.Load()
	if n, err := r.Vacuum(false); err != nil || n != len(tids) {
		t.Fatalf("reclaiming round = %d, %v; want %d", n, err, len(tids))
	}
	if d := obsVacFullWalks.Load() - walks; d != 0 {
		t.Fatalf("reclaiming round needed %d full walks", d)
	}
}

// A block whose only stamp belongs to an aborted deleter will never become
// reclaimable; it must leave the bitmap, or every round revisits it forever.
func TestVacuumAbortedDeleterDropsOutOfBitmap(t *testing.T) {
	p := newTestPool(t, 16)
	r := mustCreate(t, p, "emp")
	tid := mustInsertCommitted(t, p, r, "survivor")
	if _, err := r.Vacuum(false); err != nil {
		t.Fatal(err)
	}
	del := p.Mgr.Begin()
	if err := r.Delete(del, tid); err != nil {
		t.Fatal(err)
	}
	// In flight: the round must keep the block, the delete may yet commit.
	if n, err := r.Vacuum(false); err != nil || n != 0 {
		t.Fatalf("round with the deleter in flight = %d, %v", n, err)
	}
	if got := stampedCount(r); got != 1 {
		t.Fatalf("in-flight stamp left %d blocks in the bitmap, want 1", got)
	}
	del.Abort()
	if n, err := r.Vacuum(false); err != nil || n != 0 {
		t.Fatalf("round after the abort = %d, %v", n, err)
	}
	if got := stampedCount(r); got != 0 {
		t.Fatalf("aborted stamp left %d blocks in the bitmap", got)
	}
	visited := obsVacBlocksVisited.Load()
	if _, err := r.Vacuum(false); err != nil {
		t.Fatal(err)
	}
	if d := obsVacBlocksVisited.Load() - visited; d != 0 {
		t.Fatalf("next round revisited %d blocks", d)
	}
	fresh := p.Mgr.Begin()
	defer fresh.Abort()
	if got, err := r.Fetch(fresh, tid); err != nil || string(got) != "survivor" {
		t.Fatalf("survivor = %q, %v", got, err)
	}
}
