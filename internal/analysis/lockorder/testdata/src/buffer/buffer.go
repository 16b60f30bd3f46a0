// Fixture for the lockorder analyzer: a stub of the real buffer package
// under its package name, so the class names (buffer.Pool.nbMu level 4,
// buffer.partition.mu level 5) land in the declared hierarchy.
package buffer

import "sync"

type partition struct {
	mu sync.Mutex
}

type Pool struct {
	nbMu    sync.Mutex
	bgErrMu sync.Mutex
	parts   []*partition
}

// OkForward locks in hierarchy order: pool level before partition level.
func (p *Pool) OkForward() {
	p.nbMu.Lock()
	part := p.parts[0]
	part.mu.Lock()
	part.mu.Unlock()
	p.nbMu.Unlock()
}

// BadBackward acquires the pool-level mutex while holding a partition
// latch, against the declared order.
func (p *Pool) BadBackward() {
	part := p.parts[0]
	part.mu.Lock()
	p.nbMu.Lock() // want `lock-order: buffer\.Pool\.nbMu \(level 4\) acquired while holding buffer\.partition\.mu \(level 5\), against the declared hierarchy`
	p.nbMu.Unlock()
	part.mu.Unlock()
}

// BadReentrant takes a second partition latch while one is held.
func (p *Pool) BadReentrant() {
	a, b := p.parts[0], p.parts[1]
	a.mu.Lock()
	b.mu.Lock() // want `lock-order: buffer\.partition\.mu acquired while already held \(buffer\.Pool\.BadReentrant\); same-class re-entrancy can self-deadlock`
	b.mu.Unlock()
	a.mu.Unlock()
}

// BadViaCallee reaches the backward acquisition through a helper; the edge
// is diagnosed at the call with the helper in the witness path.
func (p *Pool) BadViaCallee() {
	part := p.parts[0]
	part.mu.Lock()
	p.grow() // want `lock-order: buffer\.Pool\.nbMu \(level 4\) acquired while holding buffer\.partition\.mu \(level 5\), against the declared hierarchy \(buffer\.Pool\.BadViaCallee → buffer\.Pool\.grow\)`
	part.mu.Unlock()
}

func (p *Pool) grow() {
	p.nbMu.Lock()
	p.nbMu.Unlock()
}

// OkBgErrLeaf: the background writer's sticky-error slot is a declared leaf;
// taking it with nothing else held (noteBgErr after a round's latches are
// all released, TakeBackgroundError at checkpoint entry) is the sanctioned
// shape.
func (p *Pool) OkBgErrLeaf() {
	p.bgErrMu.Lock()
	p.bgErrMu.Unlock()
}

// BadLatchUnderBgErr acquires a partition latch while holding the error
// slot — backwards: the writer may only note an error once every latch from
// its round is released.
func (p *Pool) BadLatchUnderBgErr() {
	p.bgErrMu.Lock()
	p.parts[0].mu.Lock() // want `lock-order: buffer\.partition\.mu \(level 5\) acquired while holding buffer\.Pool\.bgErrMu \(level 12\), against the declared hierarchy`
	p.parts[0].mu.Unlock()
	p.bgErrMu.Unlock()
}

// OkAllowedSweep re-acquires the partition class by design; the
// function-scoped allowance suppresses the re-entrancy report.
func (p *Pool) OkAllowedSweep() {
	// lockorder:allow buffer.partition.mu->buffer.partition.mu — partitions are locked in ascending index order
	for _, part := range p.parts {
		part.mu.Lock()
	}
	for _, part := range p.parts {
		part.mu.Unlock()
	}
}
