// Package bdb is the Berkeley DB case study of the paper (Sec. 2.2):
// an embedded database engine whose functionality is decomposed into
// the 24 optional features of core.BDBModel. An Env can be instantiated
// in two modes reproducing Figure 1's comparison: ModeComposed wires
// only the selected feature modules ("FeatureC++"), ModeC keeps every
// module linked behind runtime flag checks ("C with preprocessor
// options compiled in").
package bdb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"

	"famedb/internal/storage"
)

// HashIndex is the Hash access method: bucket-chained hashing over
// slotted pages. Lookups cost one page chain walk; scans are unordered.
type HashIndex struct {
	pager   storage.Pager
	meta    storage.PageID
	buckets []storage.PageID
	count   uint64
}

const (
	hashMagic    = "FAMEHI01"
	hashPageType = 0x31
)

// hashBucketCount picks a directory size that fits the meta page.
func hashBucketCount(pageSize int) int {
	max := (pageSize - 8 - 8) / 4 // magic + count, 4 bytes per bucket
	n := 64
	if n > max {
		n = max
	}
	return n
}

// CreateHash creates an empty hash index; the returned meta page
// reopens it.
func CreateHash(p storage.Pager) (*HashIndex, storage.PageID, error) {
	meta, err := p.Alloc()
	if err != nil {
		return nil, 0, err
	}
	h := &HashIndex{
		pager:   p,
		meta:    meta,
		buckets: make([]storage.PageID, hashBucketCount(p.PageSize())),
	}
	if err := h.writeMeta(); err != nil {
		return nil, 0, err
	}
	return h, meta, nil
}

// OpenHash opens a hash index from its meta page.
func OpenHash(p storage.Pager, meta storage.PageID) (*HashIndex, error) {
	buf := make([]byte, p.PageSize())
	if err := p.ReadPage(meta, buf); err != nil {
		return nil, err
	}
	if string(buf[:8]) != hashMagic {
		return nil, fmt.Errorf("bdb: page %d is not a hash meta page", meta)
	}
	h := &HashIndex{
		pager:   p,
		meta:    meta,
		count:   binary.LittleEndian.Uint64(buf[8:16]),
		buckets: make([]storage.PageID, hashBucketCount(p.PageSize())),
	}
	for i := range h.buckets {
		h.buckets[i] = storage.PageID(binary.LittleEndian.Uint32(buf[16+4*i:]))
	}
	return h, nil
}

func (h *HashIndex) writeMeta() error {
	buf := make([]byte, h.pager.PageSize())
	copy(buf, hashMagic)
	binary.LittleEndian.PutUint64(buf[8:16], h.count)
	for i, b := range h.buckets {
		binary.LittleEndian.PutUint32(buf[16+4*i:], uint32(b))
	}
	return h.pager.WritePage(h.meta, buf)
}

func (h *HashIndex) bucketFor(key []byte) int {
	f := fnv.New32a()
	f.Write(key)
	return int(f.Sum32() % uint32(len(h.buckets)))
}

func encodeHashEntry(key, value []byte) []byte {
	out := binary.AppendUvarint(nil, uint64(len(key)))
	out = append(out, key...)
	return append(out, value...)
}

func decodeHashEntry(rec []byte) (key, value []byte, err error) {
	klen, sz := binary.Uvarint(rec)
	if sz <= 0 || uint64(len(rec)-sz) < klen {
		return nil, nil, errors.New("bdb: corrupt hash entry")
	}
	return rec[sz : sz+int(klen)], rec[sz+int(klen):], nil
}

// find locates key in its bucket chain: page, slot, value.
func (h *HashIndex) find(key []byte) (storage.PageID, int, []byte, error) {
	id := h.buckets[h.bucketFor(key)]
	buf := make([]byte, h.pager.PageSize())
	for id != storage.InvalidPage {
		if err := h.pager.ReadPage(id, buf); err != nil {
			return 0, 0, nil, err
		}
		sp := storage.AsSlotted(buf)
		foundSlot := -1
		var foundVal []byte
		sp.Records(func(slot int, rec []byte) bool {
			k, v, derr := decodeHashEntry(rec)
			if derr == nil && bytes.Equal(k, key) {
				foundSlot = slot
				foundVal = append([]byte(nil), v...)
				return false
			}
			return true
		})
		if foundSlot >= 0 {
			return id, foundSlot, foundVal, nil
		}
		id = sp.Next()
	}
	return storage.InvalidPage, 0, nil, nil
}

// Name implements index.Index.
func (h *HashIndex) Name() string { return "Hash" }

// Get implements index.Index.
func (h *HashIndex) Get(key []byte) ([]byte, bool, error) {
	page, _, v, err := h.find(key)
	if err != nil {
		return nil, false, err
	}
	return v, page != storage.InvalidPage, nil
}

// Check implements index.Checker: the entry must fit a bucket page.
func (h *HashIndex) Check(key, value []byte) error {
	return storage.CheckRecord(len(encodeHashEntry(key, value)), h.pager.PageSize())
}

// Insert implements index.Index (upsert).
func (h *HashIndex) Insert(key, value []byte) error {
	if err := h.Check(key, value); err != nil {
		return err
	}
	rec := encodeHashEntry(key, value)
	page, slot, _, err := h.find(key)
	if err != nil {
		return err
	}
	buf := make([]byte, h.pager.PageSize())
	if page != storage.InvalidPage {
		// Replace in place (relocating within the chain if needed).
		if err := h.pager.ReadPage(page, buf); err != nil {
			return err
		}
		sp := storage.AsSlotted(buf)
		if err := sp.Update(slot, rec); err == nil {
			return h.pager.WritePage(page, buf)
		} else if !errors.Is(err, storage.ErrPageFull) {
			return err
		}
		if err := sp.Delete(slot); err != nil {
			return err
		}
		if err := h.pager.WritePage(page, buf); err != nil {
			return err
		}
		h.count-- // re-inserted below
	}
	// Insert into the first chain page with room, extending the chain
	// if none.
	b := h.bucketFor(key)
	id := h.buckets[b]
	prev := storage.InvalidPage
	for id != storage.InvalidPage {
		if err := h.pager.ReadPage(id, buf); err != nil {
			return err
		}
		sp := storage.AsSlotted(buf)
		if _, err := sp.Insert(rec); err == nil {
			if err := h.pager.WritePage(id, buf); err != nil {
				return err
			}
			h.count++
			return h.writeMeta()
		} else if !errors.Is(err, storage.ErrPageFull) {
			return err
		}
		prev = id
		id = sp.Next()
	}
	newID, err := h.pager.Alloc()
	if err != nil {
		return err
	}
	np := storage.InitSlotted(buf, hashPageType)
	if _, err := np.Insert(rec); err != nil {
		return err
	}
	if err := h.pager.WritePage(newID, buf); err != nil {
		return err
	}
	if prev == storage.InvalidPage {
		h.buckets[b] = newID
	} else {
		link := make([]byte, h.pager.PageSize())
		if err := h.pager.ReadPage(prev, link); err != nil {
			return err
		}
		storage.AsSlotted(link).SetNext(newID)
		if err := h.pager.WritePage(prev, link); err != nil {
			return err
		}
	}
	h.count++
	return h.writeMeta()
}

// Delete implements index.Index.
func (h *HashIndex) Delete(key []byte) (bool, error) {
	page, slot, _, err := h.find(key)
	if err != nil || page == storage.InvalidPage {
		return false, err
	}
	buf := make([]byte, h.pager.PageSize())
	if err := h.pager.ReadPage(page, buf); err != nil {
		return false, err
	}
	if err := storage.AsSlotted(buf).Delete(slot); err != nil {
		return false, err
	}
	if err := h.pager.WritePage(page, buf); err != nil {
		return false, err
	}
	h.count--
	return true, h.writeMeta()
}

// Update implements index.Index.
func (h *HashIndex) Update(key, value []byte) (bool, error) {
	page, _, _, err := h.find(key)
	if err != nil || page == storage.InvalidPage {
		return false, err
	}
	return true, h.Insert(key, value)
}

// Scan implements index.Index. Visit order is bucket order (unordered
// by key); the [from, to) filter still applies.
func (h *HashIndex) Scan(from, to []byte, fn func(key, value []byte) bool) error {
	buf := make([]byte, h.pager.PageSize())
	for _, head := range h.buckets {
		id := head
		for id != storage.InvalidPage {
			if err := h.pager.ReadPage(id, buf); err != nil {
				return err
			}
			sp := storage.AsSlotted(buf)
			stop := false
			sp.Records(func(slot int, rec []byte) bool {
				k, v, derr := decodeHashEntry(rec)
				if derr != nil {
					return true
				}
				if from != nil && bytes.Compare(k, from) < 0 {
					return true
				}
				if to != nil && bytes.Compare(k, to) >= 0 {
					return true
				}
				if !fn(k, v) {
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
	}
	return nil
}

// Len implements index.Index.
func (h *HashIndex) Len() (uint64, error) { return h.count, nil }

// VerifyChains checks every bucket chain page is well-typed and every
// entry hashes into its bucket — the hash part of the Verify feature.
func (h *HashIndex) VerifyChains() error {
	buf := make([]byte, h.pager.PageSize())
	var counted uint64
	for b, head := range h.buckets {
		id := head
		for id != storage.InvalidPage {
			if err := h.pager.ReadPage(id, buf); err != nil {
				return err
			}
			sp := storage.AsSlotted(buf)
			if sp.Type() != hashPageType {
				return fmt.Errorf("bdb: bucket %d chain page %d has type 0x%02X", b, id, sp.Type())
			}
			var verr error
			sp.Records(func(slot int, rec []byte) bool {
				k, _, derr := decodeHashEntry(rec)
				if derr != nil {
					verr = derr
					return false
				}
				if h.bucketFor(k) != b {
					verr = fmt.Errorf("bdb: key %q in wrong bucket %d", k, b)
					return false
				}
				counted++
				return true
			})
			if verr != nil {
				return verr
			}
			id = sp.Next()
		}
	}
	if counted != h.count {
		return fmt.Errorf("bdb: hash count mismatch: meta %d, found %d", h.count, counted)
	}
	return nil
}
