package core

import (
	"fmt"

	"postlob/internal/adt"
	"postlob/internal/catalog"
	"postlob/internal/heap"
	"postlob/internal/page"
	"postlob/internal/storage"
	"postlob/internal/txn"
)

// Migrate moves a chunked large object (and every relation backing it) to a
// different storage manager — the archival pattern the POSTGRES storage
// system was designed around: data ages from magnetic disk onto the WORM
// jukebox while staying fully readable, history included. Relations are
// copied block-for-block, so TIDs embedded in index entries stay valid; the
// catalog then points at the new home and the old storage is unlinked.
//
// File-backed objects (u-file, p-file) live outside the storage managers
// and cannot be migrated. The object must not have open handles.
func (s *Store) Migrate(ref adt.ObjectRef, dest storage.ID) error {
	meta, err := s.cat.Object(catalog.OID(ref.OID))
	if err != nil {
		return err
	}
	switch meta.Kind {
	case adt.KindUFile, adt.KindPFile:
		return fmt.Errorf("core: %v objects cannot migrate between storage managers", meta.Kind)
	}
	if meta.SM == dest {
		return nil
	}
	// A v-segment object owns a nested byte store; move it first.
	if meta.StoreOID != 0 {
		if err := s.Migrate(adt.ObjectRef{OID: uint64(meta.StoreOID)}, dest); err != nil {
			return err
		}
	}
	move := func(rel *storage.RelName) error {
		if *rel == "" {
			return nil
		}
		newRel, err := s.copyRelation(meta.SM, *rel, dest)
		if err != nil {
			return err
		}
		*rel = newRel
		return nil
	}
	for _, rel := range []*storage.RelName{&meta.DataRel, &meta.IdxRel, &meta.SegRel, &meta.SegIdxRel} {
		if err := move(rel); err != nil {
			return err
		}
	}
	oldSM := meta.SM
	meta.SM = dest
	if err := s.cat.PutObject(meta); err != nil {
		return err
	}
	// Unlink the old copies (their names are still in the pre-move meta we
	// loaded; recompute them from the new names: copyRelation derives
	// destination names deterministically, so reconstructing the source
	// names is simplest done during the copy — see dropOld below).
	return s.dropOldAfterMigrate(oldSM, meta)
}

// copyRelation clones every block of (srcSM, src) onto dest under a new
// name and returns it. The copy goes through the buffer pool so any dirty
// cached pages are included.
func (s *Store) copyRelation(srcSM storage.ID, src storage.RelName, dest storage.ID) (storage.RelName, error) {
	if err := s.pool.Buf.FlushRel(srcSM, src); err != nil {
		return "", err
	}
	srcMgr, err := s.pool.Buf.Switch().Get(srcSM)
	if err != nil {
		return "", err
	}
	destMgr, err := s.pool.Buf.Switch().Get(dest)
	if err != nil {
		return "", err
	}
	dst := storage.RelName(fmt.Sprintf("%s_m%d", src, dest))
	if err := destMgr.Create(dst); err != nil {
		return "", err
	}
	n, err := srcMgr.NBlocks(src)
	if err != nil {
		return "", err
	}
	buf := make([]byte, page.Size)
	for blk := storage.BlockNum(0); blk < n; blk++ {
		if err := srcMgr.ReadBlock(src, blk, buf); err != nil {
			return "", err
		}
		if err := destMgr.WriteBlock(dst, blk, buf); err != nil {
			return "", err
		}
	}
	if err := destMgr.Sync(dst); err != nil {
		return "", err
	}
	return dst, nil
}

// dropOldAfterMigrate unlinks the source relations, whose names are the
// destination names with the migration suffix stripped.
func (s *Store) dropOldAfterMigrate(oldSM storage.ID, meta *catalog.LargeObjectMeta) error {
	suffix := fmt.Sprintf("_m%d", meta.SM)
	for _, rel := range []storage.RelName{meta.DataRel, meta.IdxRel, meta.SegRel, meta.SegIdxRel} {
		if rel == "" {
			continue
		}
		old := storage.RelName(trimSuffix(string(rel), suffix))
		if old == rel {
			continue
		}
		if err := s.pool.Buf.Unlink(oldSM, old); err != nil {
			return err
		}
	}
	return nil
}

func trimSuffix(s, suffix string) string {
	if len(s) >= len(suffix) && s[len(s)-len(suffix):] == suffix {
		return s[:len(s)-len(suffix)]
	}
	return s
}

// ObjectHistory lists the commit timestamps at which a chunked object's
// contents changed, ascending — every timestamp is a valid OpenAsOf target.
func (s *Store) ObjectHistory(ref adt.ObjectRef) ([]txn.TS, error) {
	meta, err := s.cat.Object(catalog.OID(ref.OID))
	if err != nil {
		return nil, err
	}
	set := map[txn.TS]bool{}
	collect := func(sm storage.ID, relName storage.RelName) error {
		if relName == "" {
			return nil
		}
		rel, err := heap.Open(s.pool, sm, relName)
		if err != nil {
			return err
		}
		return rel.VersionStamps(func(ts txn.TS) { set[ts] = true })
	}
	switch meta.Kind {
	case adt.KindFChunk:
		if err := collect(meta.SM, meta.DataRel); err != nil {
			return nil, err
		}
	case adt.KindVSegment:
		if err := collect(meta.SM, meta.SegRel); err != nil {
			return nil, err
		}
		inner, err := s.cat.Object(meta.StoreOID)
		if err != nil {
			return nil, err
		}
		if err := collect(inner.SM, inner.DataRel); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("core: %v objects keep no version history", meta.Kind)
	}
	out := make([]txn.TS, 0, len(set))
	for ts := range set {
		out = append(out, ts)
	}
	sortTS(out)
	return out, nil
}

func sortTS(ts []txn.TS) {
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && ts[j] < ts[j-1]; j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
}
