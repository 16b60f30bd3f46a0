package core

// Vacuum: one pass over the catalog reclaiming versions no live or future
// snapshot can see (aborted debris always; superseded committed versions
// only when history is not being kept), run by hand through Store.Vacuum
// or on a daemon.Loop by the online vacuum daemon.

import (
	"fmt"
	"time"

	"postlob/internal/daemon"
	"postlob/internal/heap"
	"postlob/internal/obs"
	"postlob/internal/storage"
)

// Vacuum metrics, registered once at package init as obsregister requires.
// vacuum.reclaimed counts into heap's versions.reclaimed too (VacuumBelow
// increments that one), so vacuum.reclaimed <= versions.reclaimed always —
// the difference is whatever direct Relation.Vacuum calls reclaimed.
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
}

// Vacuum reclaims space in every class and large-object relation and
// returns the number of versions removed. The horizon is read once, up
// front: every relation in the pass is vacuumed against the same cutoff,
// so a snapshot opened mid-pass (necessarily above the captured horizon)
// can never lose a version the pass decided to keep. Relations that vanish
// mid-walk (a concurrent drop or unlink) are skipped, not errors; the
// first other error is returned after the walk finishes.
func (s *Store) Vacuum(keepHistory bool) (int, error) {
	horizon := s.pool.Mgr.GlobalXmin()
	obsVacHorizon.Set(int64(horizon))
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

// VacuumDaemon is a running online vacuum daemon, returned by
// Store.StartVacuum.
type VacuumDaemon struct {
	s       *Store
	loop    *daemon.Loop
	watches bool // registered for the heap's stamp nudges
}

// StartVacuum starts an online vacuum daemon over the store's catalog: a
// Store.Vacuum pass on every tick, and sooner when the heap reports enough
// newly stamped versions. A failed pass leaves every relation consistent,
// so the daemon just retries on its next wake-up. Call after recovery, once
// the catalog is loaded. The caller owns the lifecycle: Stop it before
// closing the store.
func (s *Store) StartVacuum(opts VacuumOptions) *VacuumDaemon {
	if opts.Interval <= 0 {
		opts.Interval = DefaultVacuumInterval
	}
	keepHistory := !opts.ReclaimHistory
	v := &VacuumDaemon{s: s, watches: opts.ReclaimHistory}
	v.loop = daemon.Start(func() error {
		_, err := s.Vacuum(keepHistory)
		return err
	}, opts.Interval)
	if v.watches {
		s.pool.WatchStamps(vacuumWakeStamps, func() { v.loop.Kick() })
	}
	return v
}

// Stop halts the daemon, waits out a pass in flight, and returns the first
// error any background pass hit. Safe to call repeatedly and concurrently.
func (v *VacuumDaemon) Stop() error {
	if v.watches {
		v.s.pool.WatchStamps(0, nil)
	}
	return v.loop.Stop()
}
