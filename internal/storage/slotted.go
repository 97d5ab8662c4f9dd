package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// A slotted page stores variable-length records within one page:
//
//	+--------+-------------------+---------------+-----------------+
//	| header | slot array (grows →)  free space  (← cells grow)    |
//	+--------+-------------------+---------------+-----------------+
//
// The header is 16 bytes:
//
//	[0]    page type (owner-defined)
//	[1]    flags (owner-defined)
//	[2:4]  slot count (uint16)
//	[4:6]  cell area start: offset of the lowest cell byte (uint16)
//	[6:10] next page (uint32, owner-defined chaining)
//	[10:14] owner extra (uint32)
//	[14:16] live record count (uint16)
//
// Each slot is 4 bytes: cell offset (uint16) and cell length (uint16).
// A deleted slot has offset 0; slot storage is reused by later inserts.
const (
	slottedHeaderSize = 16
	slotSize          = 4
)

// CheckRecord refuses a record of size bytes that no slotted page of
// pageSize bytes can hold: one larger than the page less its header and
// one slot.
func CheckRecord(size, pageSize int) error {
	if max := pageSize - slottedHeaderSize - slotSize; size > max {
		return fmt.Errorf("storage: record of %d bytes exceeds max %d", size, max)
	}
	return nil
}

// ErrPageFull is returned when a record does not fit in the page.
var ErrPageFull = errors.New("storage: page full")

// ErrNoRecord is returned when a slot is empty or out of range.
var ErrNoRecord = errors.New("storage: no such record")

// SlottedPage wraps a page buffer with slotted-record operations. It
// does not own the buffer; mutations write through to it.
type SlottedPage struct {
	buf []byte
}

// InitSlotted formats buf as an empty slotted page of the given type.
func InitSlotted(buf []byte, pageType byte) SlottedPage {
	for i := range buf {
		buf[i] = 0
	}
	buf[0] = pageType
	binary.LittleEndian.PutUint16(buf[4:6], uint16(len(buf)))
	return SlottedPage{buf: buf}
}

// AsSlotted interprets buf as an existing slotted page.
func AsSlotted(buf []byte) SlottedPage { return SlottedPage{buf: buf} }

// Type returns the page type byte.
func (p SlottedPage) Type() byte { return p.buf[0] }

// SetType sets the page type byte.
func (p SlottedPage) SetType(t byte) { p.buf[0] = t }

// Flags returns the owner-defined flags byte.
func (p SlottedPage) Flags() byte { return p.buf[1] }

// SetFlags sets the owner-defined flags byte.
func (p SlottedPage) SetFlags(f byte) { p.buf[1] = f }

// Next returns the owner-defined chaining page ID.
func (p SlottedPage) Next() PageID {
	return PageID(binary.LittleEndian.Uint32(p.buf[6:10]))
}

// SetNext sets the chaining page ID.
func (p SlottedPage) SetNext(id PageID) {
	binary.LittleEndian.PutUint32(p.buf[6:10], uint32(id))
}

// Extra returns the owner-defined extra word.
func (p SlottedPage) Extra() uint32 {
	return binary.LittleEndian.Uint32(p.buf[10:14])
}

// SetExtra sets the owner-defined extra word.
func (p SlottedPage) SetExtra(v uint32) {
	binary.LittleEndian.PutUint32(p.buf[10:14], v)
}

// NumSlots returns the slot count including tombstones.
func (p SlottedPage) NumSlots() int {
	return int(binary.LittleEndian.Uint16(p.buf[2:4]))
}

func (p SlottedPage) setNumSlots(n int) {
	binary.LittleEndian.PutUint16(p.buf[2:4], uint16(n))
}

// NumRecords returns the live (non-deleted) record count.
func (p SlottedPage) NumRecords() int {
	return int(binary.LittleEndian.Uint16(p.buf[14:16]))
}

func (p SlottedPage) setNumRecords(n int) {
	binary.LittleEndian.PutUint16(p.buf[14:16], uint16(n))
}

func (p SlottedPage) cellStart() int {
	return int(binary.LittleEndian.Uint16(p.buf[4:6]))
}

func (p SlottedPage) setCellStart(off int) {
	binary.LittleEndian.PutUint16(p.buf[4:6], uint16(off))
}

func (p SlottedPage) slot(i int) (off, length int) {
	base := slottedHeaderSize + i*slotSize
	return int(binary.LittleEndian.Uint16(p.buf[base : base+2])),
		int(binary.LittleEndian.Uint16(p.buf[base+2 : base+4]))
}

func (p SlottedPage) setSlot(i, off, length int) {
	base := slottedHeaderSize + i*slotSize
	binary.LittleEndian.PutUint16(p.buf[base:base+2], uint16(off))
	binary.LittleEndian.PutUint16(p.buf[base+2:base+4], uint16(length))
}

// FreeSpace returns the bytes available for one new record (including
// its slot, assuming a fresh slot is needed).
func (p SlottedPage) FreeSpace() int {
	free := p.cellStart() - (slottedHeaderSize + p.NumSlots()*slotSize) - slotSize
	if free < 0 {
		return 0
	}
	return free
}

// Insert stores rec and returns its slot number. Tombstone slots are
// reused. It returns ErrPageFull when rec does not fit even after
// compaction.
func (p SlottedPage) Insert(rec []byte) (int, error) {
	if len(rec) > len(p.buf) {
		return 0, fmt.Errorf("storage: record of %d bytes exceeds page size: %w", len(rec), ErrPageFull)
	}
	if slot, ok := p.tryInsert(rec); ok {
		return slot, nil
	}
	p.Compact()
	if slot, ok := p.tryInsert(rec); ok {
		return slot, nil
	}
	return 0, ErrPageFull
}

// tryInsert attempts the insert against the current cell layout.
func (p SlottedPage) tryInsert(rec []byte) (int, bool) {
	slotIdx := -1
	for i := 0; i < p.NumSlots(); i++ {
		if off, _ := p.slot(i); off == 0 {
			slotIdx = i
			break
		}
	}
	needSlot := 0
	if slotIdx == -1 {
		needSlot = slotSize
	}
	if p.cellStart()-(slottedHeaderSize+p.NumSlots()*slotSize)-needSlot < len(rec) {
		return 0, false
	}
	off := p.cellStart() - len(rec)
	copy(p.buf[off:], rec)
	p.setCellStart(off)
	if slotIdx == -1 {
		slotIdx = p.NumSlots()
		p.setNumSlots(slotIdx + 1)
	}
	p.setSlot(slotIdx, off, len(rec))
	p.setNumRecords(p.NumRecords() + 1)
	return slotIdx, true
}

// Read returns the record in the given slot. The returned slice aliases
// the page buffer; callers must copy before the page is modified.
func (p SlottedPage) Read(slot int) ([]byte, error) {
	if slot < 0 || slot >= p.NumSlots() {
		return nil, fmt.Errorf("storage: slot %d of %d: %w", slot, p.NumSlots(), ErrNoRecord)
	}
	off, length := p.slot(slot)
	if off == 0 {
		return nil, fmt.Errorf("storage: slot %d deleted: %w", slot, ErrNoRecord)
	}
	return p.buf[off : off+length], nil
}

// Delete removes the record in the given slot, leaving a reusable
// tombstone.
func (p SlottedPage) Delete(slot int) error {
	if _, err := p.Read(slot); err != nil {
		return err
	}
	p.setSlot(slot, 0, 0)
	p.setNumRecords(p.NumRecords() - 1)
	return nil
}

// Update replaces the record in the given slot. If the new record is
// larger and does not fit, ErrPageFull is returned and the page is
// unchanged (the caller relocates the record).
func (p SlottedPage) Update(slot int, rec []byte) error {
	cur, err := p.Read(slot)
	if err != nil {
		return err
	}
	off, _ := p.slot(slot)
	if len(rec) <= len(cur) {
		copy(p.buf[off:], rec)
		p.setSlot(slot, off, len(rec))
		return nil
	}
	// Relocate within the page: tombstone the old cell, then insert.
	// Copy the old bytes first — Insert may compact the page, which
	// does not preserve tombstoned cells.
	old := append([]byte(nil), cur...)
	p.setSlot(slot, 0, 0)
	p.setNumRecords(p.NumRecords() - 1)
	toStore, failErr := rec, error(nil)
	newSlot, err := p.Insert(toStore)
	if err != nil {
		// Roll back by reinserting the old record; it fit before the
		// tombstone freed its space, so this cannot fail.
		failErr = err
		newSlot, err = p.Insert(old)
		if err != nil {
			panic("storage: update rollback failed: " + err.Error())
		}
	}
	if newSlot != slot {
		// Insert picked the lowest tombstone, which may not be the
		// freed slot if earlier tombstones existed; swap so the
		// caller-visible slot number is stable.
		no, nl := p.slot(newSlot)
		oo, ol := p.slot(slot)
		p.setSlot(slot, no, nl)
		p.setSlot(newSlot, oo, ol)
	}
	return failErr
}

// Compact rewrites the cell area to squeeze out holes left by deletes
// and updates. Slot numbers are preserved.
func (p SlottedPage) Compact() {
	type cell struct {
		slot, off, length int
	}
	var cells []cell
	for i := 0; i < p.NumSlots(); i++ {
		off, length := p.slot(i)
		if off != 0 {
			cells = append(cells, cell{i, off, length})
		}
	}
	// Copy cells into a scratch area ordered from the page end.
	scratch := make([]byte, 0, len(p.buf))
	write := len(p.buf)
	for _, c := range cells {
		scratch = append(scratch, p.buf[c.off:c.off+c.length]...)
	}
	read := 0
	for _, c := range cells {
		write -= c.length
		copy(p.buf[write:], scratch[read:read+c.length])
		p.setSlot(c.slot, write, c.length)
		read += c.length
	}
	p.setCellStart(write)
	// Tombstone slots are deliberately NOT reclaimed: slot numbers are
	// stable identifiers (heap RIDs embed them), so the slot array only
	// ever shrinks when the whole page is reformatted.
}

// Records calls fn for every live record with its slot number. The
// record slice aliases the page buffer.
func (p SlottedPage) Records(fn func(slot int, rec []byte) bool) {
	for i := 0; i < p.NumSlots(); i++ {
		off, length := p.slot(i)
		if off == 0 {
			continue
		}
		if !fn(i, p.buf[off:off+length]) {
			return
		}
	}
}
