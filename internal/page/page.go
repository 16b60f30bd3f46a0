// Package page implements the 8 KB slotted page layout used by every
// disk-resident structure in this system: heap relations, B-tree nodes, and
// the chunked large-object stores built on them.
//
// A page is a fixed-size byte array with a small header, an array of line
// pointers growing down from the header, free space in the middle, item data
// growing up from the end, and an optional fixed-size "special" region at the
// very end of the page reserved for the access method (the B-tree keeps its
// node metadata there).
//
//	+----------------+---------------------------------+
//	| header (16 B)  | line pointers ->      free      |
//	|                |            space   <- item data |
//	|                |                     | special   |
//	+----------------+---------------------------------+
//
// Line pointers are never moved once allocated, so an item's (page, slot)
// address — the TID — is stable for the life of the tuple. Deleting an item
// frees its storage (reclaimed by Compact) but keeps the pointer slot as a
// tombstone so later slots keep their numbers.
package page

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Size is the fixed on-disk page size, 8 KB as in POSTGRES Version 4.
const Size = 8192

const (
	headerSize  = 16
	linePtrSize = 4

	// offLower etc. are byte offsets of the header fields.
	offLower   = 0 // uint16: end of line pointer array
	offUpper   = 2 // uint16: start of item data
	offSpecial = 4 // uint16: start of special space
	offFlags   = 6 // uint16: page flags
	offLSN     = 8 // uint64: page log sequence number (reserved)
)

// Page flags.
const (
	// FlagInitialized marks a formatted page; an all-zero page is "new".
	FlagInitialized uint16 = 1 << iota
)

// A SlotNum identifies a line pointer within a page; slots are numbered from 0.
type SlotNum uint16

// InvalidSlot is a sentinel slot number that never addresses a real item.
const InvalidSlot SlotNum = 0xFFFF

// Line pointer flag bits (stored in the top bits of the length field).
const (
	lpDead   = 0x8000 // tombstone: storage freed, slot retained
	lpLenMax = 0x7FFF
)

// Errors returned by page operations.
var (
	ErrPageFull    = errors.New("page: not enough free space")
	ErrBadSlot     = errors.New("page: invalid slot")
	ErrItemTooBig  = errors.New("page: item exceeds maximum size")
	ErrCorrupt     = errors.New("page: corrupt page layout")
	ErrUnformatted = errors.New("page: page not initialized")
)

// A Page is a Size-byte buffer interpreted with the slotted layout. It is a
// view, not a copy: mutating methods write through to the underlying array.
type Page []byte

// New allocates a fresh initialized page with specialSize bytes of special
// space reserved at the end.
func New(specialSize int) Page {
	p := Page(make([]byte, Size))
	p.Init(specialSize)
	return p
}

// Init formats p in place, discarding any previous contents. specialSize
// bytes at the end of the page are reserved for the access method. Init
// panics when p is not exactly Size bytes or specialSize is out of range;
// both are compiled-in layout bugs, not data-dependent conditions.
func (p Page) Init(specialSize int) {
	if len(p) != Size {
		panic(fmt.Sprintf("page: Init on %d-byte buffer", len(p)))
	}
	if specialSize < 0 || specialSize > Size-headerSize {
		panic(fmt.Sprintf("page: bad special size %d", specialSize))
	}
	for i := range p {
		p[i] = 0
	}
	special := Size - specialSize
	p.setU16(offLower, headerSize)
	p.setU16(offUpper, uint16(special))
	p.setU16(offSpecial, uint16(special))
	p.setU16(offFlags, FlagInitialized)
}

// IsInitialized reports whether p has been formatted by Init. A page of all
// zero bytes (fresh from the storage manager) is not initialized.
func (p Page) IsInitialized() bool {
	return p.u16(offFlags)&FlagInitialized != 0
}

// Lower returns the byte offset one past the end of the line pointer array.
func (p Page) Lower() int { return int(p.u16(offLower)) }

// Upper returns the byte offset of the start of item data.
func (p Page) Upper() int { return int(p.u16(offUpper)) }

// SpecialOffset returns the byte offset of the special space.
func (p Page) SpecialOffset() int { return int(p.u16(offSpecial)) }

// Special returns the access-method special space as a mutable slice.
func (p Page) Special() []byte { return p[p.SpecialOffset():] }

// LSN returns the page's log sequence number. The no-WAL design never
// assigns real LSNs; the buffer pool repurposes this header slot for the
// write-back checksum (SetChecksum), so an LSN stored here does not survive
// a trip through the pool.
func (p Page) LSN() uint64 { return binary.LittleEndian.Uint64(p[offLSN:]) }

// SetLSN stores a log sequence number in the page header.
func (p Page) SetLSN(lsn uint64) { binary.LittleEndian.PutUint64(p[offLSN:], lsn) }

// checksumMagic tags the LSN header slot as holding a write-back checksum:
// the top 32 bits are the magic, the low 32 a CRC of the page with the slot
// itself zeroed. Pages written before checksumming existed (or carrying a
// real LSN) don't match the magic and simply skip verification.
const checksumMagic = 0x50474353 // "PGCS"

// ErrChecksum reports a page whose stored checksum does not match its
// contents — a torn or otherwise corrupted block read back from storage.
var ErrChecksum = errors.New("page: checksum mismatch (torn or corrupt block)")

// SetChecksum stamps the page's checksum into the LSN header slot. The
// buffer pool calls this on the private copy it hands to the storage
// manager at write-back.
func (p Page) SetChecksum() {
	binary.LittleEndian.PutUint64(p[offLSN:], uint64(checksumMagic)<<32|uint64(p.crc()))
}

// VerifyChecksum checks a page read back from storage against its stamped
// checksum. Pages without a stamp pass; a stamped page with a mismatch
// returns ErrChecksum. A torn block — a prefix of a new image over an old
// one — is caught because the CRC covers bytes on both sides of the slot.
func (p Page) VerifyChecksum() error {
	v := binary.LittleEndian.Uint64(p[offLSN:])
	if uint32(v>>32) != checksumMagic {
		return nil
	}
	if uint32(v) != p.crc() {
		return ErrChecksum
	}
	return nil
}

// crc computes the page CRC with the checksum slot treated as zero.
func (p Page) crc() uint32 {
	crc := crc32.Update(0, crc32.IEEETable, p[:offLSN])
	var zero [8]byte
	crc = crc32.Update(crc, crc32.IEEETable, zero[:])
	return crc32.Update(crc, crc32.IEEETable, p[offLSN+8:])
}

// NumSlots returns the number of line pointers allocated on the page,
// including dead tombstone slots.
func (p Page) NumSlots() int {
	return (p.Lower() - headerSize) / linePtrSize
}

// FreeSpace returns the bytes available for a new item plus its line pointer.
func (p Page) FreeSpace() int {
	free := p.Upper() - p.Lower() - linePtrSize
	if free < 0 {
		return 0
	}
	return free
}

// Hole returns the page's free-space gap — the bytes between the end of the
// line pointer array and the start of item data, [off, off+n) — which carry
// no information: nothing on the page addresses them. The write-ahead log
// leaves them out of a page image. An unformatted page, or one whose bounds
// do not describe a gap inside the page, has no hole.
func (p Page) Hole() (off, n int) {
	lower, upper := p.Lower(), p.Upper()
	if len(p) != Size || !p.IsInitialized() || lower < headerSize || lower >= upper || upper > p.SpecialOffset() || p.SpecialOffset() > Size {
		return 0, 0
	}
	return lower, upper - lower
}

// MaxItemSize returns the largest item that fits on an empty page with the
// given special size.
func MaxItemSize(specialSize int) int {
	return Size - headerSize - linePtrSize - specialSize
}

// AddItem stores data on the page and returns its new slot number. Dead
// tombstone slots are reused before the line pointer array is extended.
func (p Page) AddItem(data []byte) (SlotNum, error) {
	if !p.IsInitialized() {
		return InvalidSlot, ErrUnformatted
	}
	if len(data) > lpLenMax {
		return InvalidSlot, ErrItemTooBig
	}
	// Prefer recycling a dead slot: it costs no line-pointer space.
	slot := InvalidSlot
	n := p.NumSlots()
	for i := 0; i < n; i++ {
		if _, length := p.linePtr(SlotNum(i)); length == lpDead {
			slot = SlotNum(i)
			break
		}
	}
	need := len(data)
	if slot == InvalidSlot {
		need += linePtrSize
	}
	if p.Upper()-p.Lower() < need {
		return InvalidSlot, ErrPageFull
	}
	newUpper := p.Upper() - len(data)
	copy(p[newUpper:], data)
	p.setU16(offUpper, uint16(newUpper))
	if slot == InvalidSlot {
		slot = SlotNum(n)
		p.setU16(offLower, uint16(p.Lower()+linePtrSize))
	}
	p.setLinePtr(slot, uint16(newUpper), uint16(len(data)))
	return slot, nil
}

// Item returns the data stored at slot as a mutable slice into the page.
// Callers that mutate the slice (e.g. the heap setting a tuple's xmax) must
// mark the containing buffer dirty themselves.
func (p Page) Item(slot SlotNum) ([]byte, error) {
	off, length, err := p.liveLinePtr(slot)
	if err != nil {
		return nil, err
	}
	return p[off : off+length : off+length], nil
}

// ItemIsDead reports whether slot is a tombstone (or out of range).
func (p Page) ItemIsDead(slot SlotNum) bool {
	if int(slot) >= p.NumSlots() {
		return true
	}
	_, length := p.linePtr(slot)
	return length == lpDead
}

// DeleteItem turns slot into a tombstone. The item's storage is reclaimed by
// the next Compact; the slot number is preserved so other TIDs stay valid.
func (p Page) DeleteItem(slot SlotNum) error {
	if _, _, err := p.liveLinePtr(slot); err != nil {
		return err
	}
	p.setLinePtr(slot, 0, lpDead)
	return nil
}

// ReplaceItem overwrites the item at slot with data of the same length. It is
// used for in-place header updates where the tuple body is rewritten whole.
func (p Page) ReplaceItem(slot SlotNum, data []byte) error {
	off, length, err := p.liveLinePtr(slot)
	if err != nil {
		return err
	}
	if len(data) != length {
		return fmt.Errorf("page: ReplaceItem length %d != existing %d", len(data), length)
	}
	copy(p[off:], data)
	return nil
}

// Compact rewrites item data contiguously at the end of the page, reclaiming
// holes left by deleted items. Line pointer slots (and hence TIDs) do not
// move. Returns the number of free bytes after compaction.
func (p Page) Compact() int {
	type live struct {
		slot   SlotNum
		off    int
		length int
	}
	n := p.NumSlots()
	items := make([]live, 0, n)
	for i := 0; i < n; i++ {
		off, length := p.linePtr(SlotNum(i))
		if length == lpDead {
			continue
		}
		items = append(items, live{SlotNum(i), int(off), int(length & lpLenMax)})
	}
	// Move items highest-first so copies never overlap destructively.
	for i := 0; i < len(items); i++ {
		max := i
		for j := i + 1; j < len(items); j++ {
			if items[j].off > items[max].off {
				max = j
			}
		}
		items[i], items[max] = items[max], items[i]
	}
	upper := p.SpecialOffset()
	for _, it := range items {
		upper -= it.length
		if upper != it.off {
			copy(p[upper:upper+it.length], p[it.off:it.off+it.length])
			p.setLinePtr(it.slot, uint16(upper), uint16(it.length))
		}
	}
	p.setU16(offUpper, uint16(upper))
	return p.FreeSpace()
}

// Check validates the page's internal layout invariants, returning ErrCorrupt
// wrapped with detail on the first violation found.
func (p Page) Check() error {
	if len(p) != Size {
		return fmt.Errorf("%w: length %d", ErrCorrupt, len(p))
	}
	if !p.IsInitialized() {
		return nil // all-zero pages are legal, just empty
	}
	lower, upper, special := p.Lower(), p.Upper(), p.SpecialOffset()
	if lower < headerSize || lower > upper || upper > special || special > Size {
		return fmt.Errorf("%w: lower=%d upper=%d special=%d", ErrCorrupt, lower, upper, special)
	}
	if (lower-headerSize)%linePtrSize != 0 {
		return fmt.Errorf("%w: ragged line pointer array", ErrCorrupt)
	}
	for i := 0; i < p.NumSlots(); i++ {
		off, length := p.linePtr(SlotNum(i))
		if length == lpDead {
			continue
		}
		l := int(length & lpLenMax)
		if int(off) < upper || int(off)+l > special {
			return fmt.Errorf("%w: slot %d item [%d,%d) outside [%d,%d)", ErrCorrupt, i, off, int(off)+l, upper, special)
		}
	}
	return nil
}

func (p Page) u16(off int) uint16 { return binary.LittleEndian.Uint16(p[off:]) }

func (p Page) setU16(off int, v uint16) { binary.LittleEndian.PutUint16(p[off:], v) }

func (p Page) linePtr(slot SlotNum) (off, length uint16) {
	base := headerSize + int(slot)*linePtrSize
	return p.u16(base), p.u16(base + 2)
}

func (p Page) setLinePtr(slot SlotNum, off, length uint16) {
	base := headerSize + int(slot)*linePtrSize
	p.setU16(base, off)
	p.setU16(base+2, length)
}

func (p Page) liveLinePtr(slot SlotNum) (off, length int, err error) {
	if !p.IsInitialized() {
		return 0, 0, ErrUnformatted
	}
	if int(slot) >= p.NumSlots() {
		return 0, 0, fmt.Errorf("%w: slot %d of %d", ErrBadSlot, slot, p.NumSlots())
	}
	o, l := p.linePtr(slot)
	if l == lpDead {
		return 0, 0, fmt.Errorf("%w: slot %d is dead", ErrBadSlot, slot)
	}
	return int(o), int(l & lpLenMax), nil
}
