package storage

// The Checksums feature: a Pager layer that seals every data page with
// a CRC32-IEEE trailer so silent device corruption (torn writes, bit
// rot) surfaces as a typed ErrPageCorrupt instead of garbage records.
//
// The layer sits directly above PageFile and below the buffer pools, so
// every flush write-back is sealed and every cache miss is verified
// with no changes in the pools themselves. The trailer lives in the
// last 4 bytes of the physical page: clients of a ChecksumPager see a
// logical page ChecksumSize bytes smaller than the platform page, which
// is the feature's storage cost (its ROM/latency cost is priced by
// bench B5 through the NFP feedback loop).
//
// Free-list pages and freshly allocated pages are written raw by
// PageFile (next-pointers and zero fill, no trailer), so an all-zero
// physical page is accepted as valid — it can only be a fresh page that
// no one has written yet. A torn or rotten page cannot masquerade as
// one: any nonzero byte forces the CRC check.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync"

	"famedb/internal/stats"
	"famedb/internal/trace"
)

// ChecksumSize is the per-page trailer cost of the Checksums feature.
const ChecksumSize = 4

// ChecksumPager wraps a *PageFile with CRC32 page trailers. It is safe
// for concurrent use (the sharded buffer pool issues reads and
// write-backs from several shards at once); physical scratch buffers
// come from a pool rather than a latched field.
type ChecksumPager struct {
	base    *PageFile
	logical int
	scratch sync.Pool
	// metrics observes checksum failures and scrub traffic when the
	// Statistics feature is composed; nil otherwise.
	metrics *stats.Registry
}

// NewChecksumPager layers CRC32 trailers over base. The logical page
// size shrinks by ChecksumSize.
func NewChecksumPager(base *PageFile) (*ChecksumPager, error) {
	phys := base.PageSize()
	if phys <= ChecksumSize {
		return nil, fmt.Errorf("storage: page size %d too small for checksum trailer", phys)
	}
	cp := &ChecksumPager{base: base, logical: phys - ChecksumSize}
	cp.scratch.New = func() any { return make([]byte, phys) }
	return cp, nil
}

// SetMetrics attaches the Statistics feature's fault counters.
func (cp *ChecksumPager) SetMetrics(m *stats.Registry) { cp.metrics = m }

// Base returns the wrapped page file (the scrub pass and the composer
// need the free list and page count).
func (cp *ChecksumPager) Base() *PageFile { return cp.base }

// PageSize implements Pager: the logical size visible to clients.
func (cp *ChecksumPager) PageSize() int { return cp.logical }

// Alloc implements Pager.
func (cp *ChecksumPager) Alloc() (PageID, error) { return cp.base.Alloc() }

// Free implements Pager.
func (cp *ChecksumPager) Free(id PageID) error { return cp.base.Free(id) }

// Sync implements Pager.
func (cp *ChecksumPager) Sync() error { return cp.base.Sync() }

// Close implements Pager.
func (cp *ChecksumPager) Close() error { return cp.base.Close() }

// zeroPage reports whether every byte is zero (a fresh, never-written
// page — valid without a trailer).
func zeroPage(p []byte) bool {
	for _, b := range p {
		if b != 0 {
			return false
		}
	}
	return true
}

// verify checks a physical page image. It returns the *PageError
// (wrapping ErrPageCorrupt) describing the mismatch, or nil.
func (cp *ChecksumPager) verify(id PageID, phys []byte) error {
	payload, trailer := phys[:cp.logical], phys[cp.logical:]
	stored := binary.LittleEndian.Uint32(trailer)
	want := crc32.ChecksumIEEE(payload)
	if stored == want {
		return nil
	}
	if stored == 0 && zeroPage(payload) {
		return nil // fresh page, never sealed
	}
	cp.metrics.Add(stats.FaultChecksumFailures, 1)
	return pageErr("read", id, fmt.Errorf("crc stored %08x, computed %08x: %w", stored, want, ErrPageCorrupt))
}

// ReadPage implements Pager: the physical page is read and its trailer
// verified before the logical payload is handed to the caller.
func (cp *ChecksumPager) ReadPage(id PageID, buf []byte) error { return cp.ReadPageIn(nil, id, buf) }

// ReadPageIn implements SpanPager, forwarding parent to the page file.
func (cp *ChecksumPager) ReadPageIn(parent *trace.Span, id PageID, buf []byte) error {
	if len(buf) != cp.logical {
		return fmt.Errorf("storage: buffer size %d != page size %d", len(buf), cp.logical)
	}
	phys := cp.scratch.Get().([]byte)
	defer cp.scratch.Put(phys)
	if err := cp.base.ReadPageIn(parent, id, phys); err != nil {
		return err
	}
	if err := cp.verify(id, phys); err != nil {
		return err
	}
	copy(buf, phys[:cp.logical])
	return nil
}

// WritePage implements Pager: the logical payload is sealed with its
// CRC32 trailer and written as one physical page.
func (cp *ChecksumPager) WritePage(id PageID, buf []byte) error { return cp.WritePageIn(nil, id, buf) }

// WritePageIn implements SpanPager, forwarding parent to the page file.
func (cp *ChecksumPager) WritePageIn(parent *trace.Span, id PageID, buf []byte) error {
	if len(buf) != cp.logical {
		return fmt.Errorf("storage: buffer size %d != page size %d", len(buf), cp.logical)
	}
	phys := cp.scratch.Get().([]byte)
	defer cp.scratch.Put(phys)
	copy(phys, buf)
	binary.LittleEndian.PutUint32(phys[cp.logical:], crc32.ChecksumIEEE(buf))
	return cp.base.WritePageIn(parent, id, phys)
}

// VerifyReport summarizes a scrub pass over the page file.
type VerifyReport struct {
	// PagesChecked counts data pages whose trailers were verified.
	PagesChecked int
	// FreeSkipped counts free-list pages skipped (they carry raw
	// next-pointers, not sealed payloads).
	FreeSkipped int
	// Corrupt lists the pages whose trailers did not match, in
	// ascending page order.
	Corrupt []PageID
}

// Ok reports whether the scrub found no corruption.
func (r VerifyReport) Ok() bool { return len(r.Corrupt) == 0 }

// String renders the report for logs and the shell.
func (r VerifyReport) String() string {
	if r.Ok() {
		return fmt.Sprintf("verify: %d pages ok, %d free skipped", r.PagesChecked, r.FreeSkipped)
	}
	return fmt.Sprintf("verify: %d pages checked, %d free skipped, %d CORRUPT %v",
		r.PagesChecked, r.FreeSkipped, len(r.Corrupt), r.Corrupt)
}

// Verify scrubs every allocated data page: the free list is walked
// first (free pages carry no trailers), then each remaining page's CRC
// is checked. I/O errors abort the scrub; corruption does not — the
// report lists every bad page so an operator sees the full damage, not
// just the first hit.
func (cp *ChecksumPager) Verify() (VerifyReport, error) {
	var rep VerifyReport
	free, err := cp.base.FreePages()
	if err != nil {
		return rep, err
	}
	isFree := make(map[PageID]bool, len(free))
	for _, id := range free {
		isFree[id] = true
	}
	phys := cp.scratch.Get().([]byte)
	defer cp.scratch.Put(phys)
	n := cp.base.NumPages()
	for id := PageID(1); uint32(id) < n; id++ {
		if isFree[id] {
			rep.FreeSkipped++
			continue
		}
		if err := cp.base.ReadPage(id, phys); err != nil {
			return rep, err
		}
		rep.PagesChecked++
		if err := cp.verify(id, phys); err != nil {
			rep.Corrupt = append(rep.Corrupt, id)
		}
	}
	cp.metrics.Add(stats.FaultScrubbedPages, int64(rep.PagesChecked))
	return rep, nil
}
