package buffer

// lruList is a partition's list of unpinned resident frames, most recently
// used at the front. The links live in the frames themselves, so a frame
// leaving the list when it is pinned and rejoining it at its last Release
// allocates nothing: a pool hit stays allocation-free, which the f-chunk
// read path's zero-allocation whole-object read depends on. Every method is
// called with the partition's mu held.
type lruList struct {
	front, back *Frame
	n           int // frames on the list
}

func (l *lruList) pushFrontLocked(f *Frame) {
	f.lruPrev, f.lruNext, f.inLRU = nil, l.front, true
	if l.front != nil {
		l.front.lruPrev = f
	} else {
		l.back = f
	}
	l.front = f
	l.n++
}

func (l *lruList) pushBackLocked(f *Frame) {
	f.lruPrev, f.lruNext, f.inLRU = l.back, nil, true
	if l.back != nil {
		l.back.lruNext = f
	} else {
		l.front = f
	}
	l.back = f
	l.n++
}

func (l *lruList) removeLocked(f *Frame) {
	if f.lruPrev != nil {
		f.lruPrev.lruNext = f.lruNext
	} else {
		l.front = f.lruNext
	}
	if f.lruNext != nil {
		f.lruNext.lruPrev = f.lruPrev
	} else {
		l.back = f.lruPrev
	}
	f.lruPrev, f.lruNext, f.inLRU = nil, nil, false
	l.n--
}
