package core

// Online vacuum daemon: the background counterpart of the facade's manual
// Vacuum call. Each round computes the global xmin horizon once from the
// transaction manager, then walks every class relation and every
// large-object relation in the catalog, reclaiming versions no live or
// future snapshot can see (aborted debris always; superseded committed
// versions only when history is not being kept). Modeled on the buffer
// pool's background I/O engine: optional, restartable, and with a Manual
// mode that spawns no goroutines so deterministic harnesses (the seeded
// crash sweep) drive Round() themselves.

import (
	"fmt"
	"sync"
	"time"

	"postlob/internal/heap"
	"postlob/internal/obs"
	"postlob/internal/storage"
)

// Vacuum metrics, registered once at package init as obsregister requires.
// vacuum.reclaimed counts into heap's versions.reclaimed too (VacuumBelow
// increments that one), so vacuum.reclaimed <= versions.reclaimed always —
// the difference is whatever manual Relation.Vacuum calls reclaimed.
var (
	obsVacRounds    = obs.NewCounter("vacuum.rounds")
	obsVacReclaimed = obs.NewCounter("vacuum.reclaimed")
	obsVacErrors    = obs.NewCounter("vacuum.errors")
	obsVacHorizon   = obs.NewGauge("vacuum.horizon")
)

// DefaultVacuumInterval is the daemon's clock tick when none is given.
const DefaultVacuumInterval = 50 * time.Millisecond

// vacuumWakeStamps is how many versions may be stamped deleted before a
// history-reclaiming daemon runs a round without waiting for its tick. A
// round costs what it visits, so running one per couple of megabytes of
// superseded pages is cheap, and it keeps the unreclaimed backlog — which is
// what makes relations grow — a fixed amount of work rather than a fixed
// amount of time, whatever the write rate.
const vacuumWakeStamps = 256

// VacuumOptions configures the online vacuum daemon.
type VacuumOptions struct {
	// Interval is the daemon's clock tick; 0 means DefaultVacuumInterval.
	Interval time.Duration
	// ReclaimHistory surrenders time travel for space: superseded committed
	// versions below the snapshot horizon are reclaimed too, not just
	// aborted debris. This is the POSTGRES vacuum-cleaner trade.
	ReclaimHistory bool
	// Manual spawns no goroutine: the harness calls Round itself, keeping a
	// seeded workload's operation sequence deterministic while still
	// exercising the reclamation code paths.
	Manual bool
}

// Vacuum is a running vacuum daemon, returned by Store.StartVacuum.
type Vacuum struct {
	s    *Store
	opts VacuumOptions
	stop chan struct{}
	wake chan struct{} // capacity 1: at most one pending nudge from the heap
	wg   sync.WaitGroup

	mu      sync.Mutex // guards lastErr and stopped; never held across a Round
	lastErr error
	stopped bool
}

// StartVacuum starts an online vacuum daemon over the store's catalog.
// Call after recovery, once the catalog is loaded. The caller owns the
// lifecycle: Stop it before closing the store.
func (s *Store) StartVacuum(opts VacuumOptions) *Vacuum {
	if opts.Interval <= 0 {
		opts.Interval = DefaultVacuumInterval
	}
	v := &Vacuum{s: s, opts: opts, stop: make(chan struct{}), wake: make(chan struct{}, 1)}
	if !opts.Manual {
		if opts.ReclaimHistory {
			s.pool.WatchStamps(vacuumWakeStamps, v.wake)
		}
		v.wg.Add(1)
		go v.loop()
	}
	return v
}

// loop runs rounds on a clock tick, and sooner when the heap reports enough
// newly stamped versions, until Stop. Errors are noted sticky for
// Stop to surface; the frames involved are untouched (VacuumBelow leaves a
// relation consistent on error), so the loop just retries next tick.
func (v *Vacuum) loop() {
	defer v.wg.Done()
	t := time.NewTicker(v.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-v.stop:
			return
		case <-t.C:
		case <-v.wake:
		}
		if _, err := v.Round(); err != nil {
			v.mu.Lock()
			if v.lastErr == nil {
				v.lastErr = err
			}
			v.mu.Unlock()
		}
	}
}

// Round performs one vacuum pass synchronously and returns the number of
// versions reclaimed. The horizon is read once, up front: every relation in
// the pass is vacuumed against the same cutoff, so a snapshot opened
// mid-round (necessarily above the captured horizon) can never lose a
// version the round decided to keep. Relations that vanish mid-walk (a
// concurrent drop or unlink) are skipped, not errors.
func (v *Vacuum) Round() (int, error) {
	s := v.s
	horizon := s.pool.Mgr.GlobalXmin()
	obsVacHorizon.Set(int64(horizon))
	keepHistory := !v.opts.ReclaimHistory
	total := 0
	var firstErr error
	vac := func(sm storage.ID, rel storage.RelName) {
		if rel == "" {
			return
		}
		r, err := heap.Open(s.pool, sm, rel)
		if err != nil {
			return // dropped since the catalog listing; nothing to reclaim
		}
		n, err := r.VacuumBelow(horizon, keepHistory)
		total += n
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("core: vacuum %s: %w", rel, err)
		}
	}
	for _, cls := range s.cat.Classes() {
		vac(cls.SM, cls.Rel)
	}
	for _, meta := range s.cat.Objects(false) {
		vac(meta.SM, meta.DataRel)
		vac(meta.SM, meta.SegRel)
	}
	obsVacRounds.Inc()
	obsVacReclaimed.Add(int64(total))
	if firstErr != nil {
		obsVacErrors.Inc()
	}
	return total, firstErr
}

// Stop halts the daemon, waits for its goroutine to exit, and returns the
// first error any background round hit (rounds driven manually report their
// errors directly). Safe to call more than once.
func (v *Vacuum) Stop() error {
	v.mu.Lock()
	if v.stopped {
		err := v.lastErr
		v.mu.Unlock()
		return err
	}
	v.stopped = true
	v.mu.Unlock()
	if !v.opts.Manual && v.opts.ReclaimHistory {
		v.s.pool.WatchStamps(0, nil)
	}
	close(v.stop)
	v.wg.Wait()
	v.mu.Lock()
	err := v.lastErr
	v.mu.Unlock()
	return err
}
