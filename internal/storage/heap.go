package storage

import (
	"errors"
	"fmt"
)

// RID identifies a record in a heap file: page and slot.
type RID struct {
	Page PageID
	Slot uint16
}

// String renders the RID as "page:slot".
func (r RID) String() string { return fmt.Sprintf("%d:%d", r.Page, r.Slot) }

// IsZero reports whether the RID is the zero value (no record).
func (r RID) IsZero() bool { return r.Page == InvalidPage }

// HeapFile stores variable-length records in a chain of slotted pages.
// Records keep their RID for their lifetime unless Update must relocate
// them, in which case the new RID is returned. It is the backing store
// of the List index and of table payload storage.
type HeapFile struct {
	pager Pager
	// head is the first data page of the chain; InvalidPage when empty.
	head PageID
	// tail is the last page, where inserts go first.
	tail PageID
	buf  []byte
}

const heapPageType = 0x11

// CreateHeap creates an empty heap file on the pager and returns it
// along with the head page ID the caller must persist to reopen it.
func CreateHeap(p Pager) (*HeapFile, PageID, error) {
	h := &HeapFile{pager: p, buf: make([]byte, p.PageSize())}
	id, err := h.appendPage(InvalidPage)
	if err != nil {
		return nil, InvalidPage, err
	}
	h.head, h.tail = id, id
	return h, id, nil
}

// OpenHeap opens a heap file given its head page ID.
func OpenHeap(p Pager, head PageID) (*HeapFile, error) {
	h := &HeapFile{pager: p, head: head, buf: make([]byte, p.PageSize())}
	// Find the tail by walking the chain.
	id := head
	for {
		if err := p.ReadPage(id, h.buf); err != nil {
			return nil, err
		}
		sp := AsSlotted(h.buf)
		if sp.Type() != heapPageType {
			return nil, fmt.Errorf("storage: page %d is not a heap page", id)
		}
		next := sp.Next()
		if next == InvalidPage {
			break
		}
		id = next
	}
	h.tail = id
	return h, nil
}

// appendPage allocates and formats a fresh heap page linked after prev.
func (h *HeapFile) appendPage(prev PageID) (PageID, error) {
	id, err := h.pager.Alloc()
	if err != nil {
		return InvalidPage, err
	}
	page := make([]byte, h.pager.PageSize())
	InitSlotted(page, heapPageType)
	if err := h.pager.WritePage(id, page); err != nil {
		return InvalidPage, err
	}
	if prev != InvalidPage {
		if err := h.pager.ReadPage(prev, h.buf); err != nil {
			return InvalidPage, err
		}
		AsSlotted(h.buf).SetNext(id)
		if err := h.pager.WritePage(prev, h.buf); err != nil {
			return InvalidPage, err
		}
	}
	return id, nil
}

// Check refuses a record of size bytes that no page of the heap can
// hold; Insert makes the same test before it writes.
func (h *HeapFile) Check(size int) error { return CheckRecord(size, h.pager.PageSize()) }

// Insert stores rec and returns its RID. Records larger than roughly a
// page are rejected.
func (h *HeapFile) Insert(rec []byte) (RID, error) {
	if err := h.Check(len(rec)); err != nil {
		return RID{}, err
	}
	// Try the tail page, then extend the chain.
	if err := h.pager.ReadPage(h.tail, h.buf); err != nil {
		return RID{}, err
	}
	sp := AsSlotted(h.buf)
	slot, err := sp.Insert(rec)
	if errors.Is(err, ErrPageFull) {
		id, aerr := h.appendPage(h.tail)
		if aerr != nil {
			return RID{}, aerr
		}
		h.tail = id
		if err := h.pager.ReadPage(id, h.buf); err != nil {
			return RID{}, err
		}
		sp = AsSlotted(h.buf)
		slot, err = sp.Insert(rec)
	}
	if err != nil {
		return RID{}, err
	}
	if err := h.pager.WritePage(h.tail, h.buf); err != nil {
		return RID{}, err
	}
	return RID{Page: h.tail, Slot: uint16(slot)}, nil
}

// Get returns a copy of the record at rid.
func (h *HeapFile) Get(rid RID) ([]byte, error) {
	if err := h.pager.ReadPage(rid.Page, h.buf); err != nil {
		return nil, err
	}
	sp := AsSlotted(h.buf)
	if sp.Type() != heapPageType {
		return nil, fmt.Errorf("storage: RID %v does not point at a heap page", rid)
	}
	rec, err := sp.Read(int(rid.Slot))
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), rec...), nil
}

// Delete removes the record at rid.
func (h *HeapFile) Delete(rid RID) error {
	if err := h.pager.ReadPage(rid.Page, h.buf); err != nil {
		return err
	}
	sp := AsSlotted(h.buf)
	if err := sp.Delete(int(rid.Slot)); err != nil {
		return err
	}
	return h.pager.WritePage(rid.Page, h.buf)
}

// Update replaces the record at rid. If the new record no longer fits
// in its page, it is relocated and the new RID returned; otherwise the
// original rid is returned.
func (h *HeapFile) Update(rid RID, rec []byte) (RID, error) {
	if err := h.pager.ReadPage(rid.Page, h.buf); err != nil {
		return RID{}, err
	}
	sp := AsSlotted(h.buf)
	err := sp.Update(int(rid.Slot), rec)
	switch {
	case err == nil:
		if werr := h.pager.WritePage(rid.Page, h.buf); werr != nil {
			return RID{}, werr
		}
		return rid, nil
	case errors.Is(err, ErrPageFull):
		// Relocate: delete here, insert elsewhere.
		if derr := sp.Delete(int(rid.Slot)); derr != nil {
			return RID{}, derr
		}
		if werr := h.pager.WritePage(rid.Page, h.buf); werr != nil {
			return RID{}, werr
		}
		return h.Insert(rec)
	default:
		return RID{}, err
	}
}

// Scan calls fn for every record in RID order. Returning false stops
// the scan. The record slice is only valid during the call.
func (h *HeapFile) Scan(fn func(rid RID, rec []byte) bool) error {
	id := h.head
	for id != InvalidPage {
		if err := h.pager.ReadPage(id, h.buf); err != nil {
			return err
		}
		sp := AsSlotted(h.buf)
		stop := false
		sp.Records(func(slot int, rec []byte) bool {
			if !fn(RID{Page: id, Slot: uint16(slot)}, rec) {
				stop = true
				return false
			}
			return true
		})
		if stop {
			return nil
		}
		id = sp.Next()
	}
	return nil
}

// Len counts the live records by scanning the chain.
func (h *HeapFile) Len() (int, error) {
	n := 0
	id := h.head
	for id != InvalidPage {
		if err := h.pager.ReadPage(id, h.buf); err != nil {
			return 0, err
		}
		sp := AsSlotted(h.buf)
		n += sp.NumRecords()
		id = sp.Next()
	}
	return n, nil
}

// Truncate removes every record, freeing all pages but the head.
func (h *HeapFile) Truncate() error {
	if err := h.pager.ReadPage(h.head, h.buf); err != nil {
		return err
	}
	next := AsSlotted(h.buf).Next()
	InitSlotted(h.buf, heapPageType)
	if err := h.pager.WritePage(h.head, h.buf); err != nil {
		return err
	}
	for next != InvalidPage {
		if err := h.pager.ReadPage(next, h.buf); err != nil {
			return err
		}
		n := AsSlotted(h.buf).Next()
		if err := h.pager.Free(next); err != nil {
			return err
		}
		next = n
	}
	h.tail = h.head
	return nil
}

// Drop frees every page of the heap, its head included; the heap must
// not be used afterwards.
func (h *HeapFile) Drop() error {
	for id := h.head; id != InvalidPage; {
		if err := h.pager.ReadPage(id, h.buf); err != nil {
			return err
		}
		next := AsSlotted(h.buf).Next()
		if err := h.pager.Free(id); err != nil {
			return err
		}
		id = next
	}
	return nil
}

// Head returns the heap's head page ID (persist it to reopen the heap).
func (h *HeapFile) Head() PageID { return h.head }
