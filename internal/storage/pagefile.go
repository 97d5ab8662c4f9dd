// Package storage is the storage-management substrate of FAME-DBMS:
// page files with free-page management, slotted pages, and heap files
// with record identifiers. Index structures (internal/btree,
// internal/index) and the buffer manager (internal/buffer) are built on
// the Pager interface defined here.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"famedb/internal/osal"
	"famedb/internal/stats"
	"famedb/internal/trace"
)

// PageID identifies a page within a page file. Page 0 is the file
// header; 0 is therefore also the "no page" sentinel for user data.
type PageID uint32

// InvalidPage is the zero PageID, never a data page.
const InvalidPage PageID = 0

// Pager is the page-granular storage interface. PageFile implements it
// directly; the buffer manager wraps any Pager and implements it again,
// so index structures are oblivious to whether a cache is configured
// (the BufferManager feature is optional in the product line).
//
// Buffers stay the caller's: ReadPage and WritePage copy into or out of
// buf and keep no reference to it once they return. The B+-tree hands a
// node's buffer to the next descent as soon as WritePage returns, so a
// Pager (or decorator) that retained buf would see it overwritten.
type Pager interface {
	// PageSize returns the fixed page size in bytes.
	PageSize() int
	// Alloc allocates a page and returns its ID. Fresh pages are
	// zeroed.
	Alloc() (PageID, error)
	// Free returns a page to the free list.
	Free(PageID) error
	// ReadPage fills buf (len == PageSize) with the page contents.
	ReadPage(id PageID, buf []byte) error
	// WritePage stores buf (len == PageSize) as the page contents.
	WritePage(id PageID, buf []byte) error
	// Sync makes all written pages durable.
	Sync() error
	// Close flushes and releases resources.
	Close() error
}

// SpanPager is the span-carrying side of a Pager that records spans or
// forwards them to one that does: the same page calls with the caller's
// span as the parent of whatever the pager records. PageFile, the
// buffer managers and the checksum and retry pagers implement it; their
// plain ReadPage/WritePage are the same bodies with a nil parent.
type SpanPager interface {
	ReadPageIn(parent *trace.Span, id PageID, buf []byte) error
	WritePageIn(parent *trace.Span, id PageID, buf []byte) error
}

// Seam is a Pager as the layer above it holds it: the Pager plus its
// SpanPager side, asserted once at construction. A pager that is not a
// SpanPager (a decorator written without tracing in mind) still works:
// spans recorded below it become parentless roots.
type Seam struct {
	Pager
	in SpanPager
}

// SeamOf binds p for a span-holding caller.
func SeamOf(p Pager) Seam {
	in, _ := p.(SpanPager)
	return Seam{Pager: p, in: in}
}

// ReadIn reads a page, handing parent down when there is one to hand
// and the pager takes it; otherwise it is exactly Pager.ReadPage.
func (s Seam) ReadIn(parent *trace.Span, id PageID, buf []byte) error {
	if parent != nil && s.in != nil {
		return s.in.ReadPageIn(parent, id, buf)
	}
	return s.Pager.ReadPage(id, buf)
}

// WriteIn is ReadIn's counterpart for Pager.WritePage.
func (s Seam) WriteIn(parent *trace.Span, id PageID, buf []byte) error {
	if parent != nil && s.in != nil {
		return s.in.WritePageIn(parent, id, buf)
	}
	return s.Pager.WritePage(id, buf)
}

const (
	fileMagic   = "FAMEPG01"
	headerSize  = 8 + 4 + 4 + 4 // magic + pageSize + pageCount + freeHead
	minPageSize = 64
	// maxPageSize is the largest page a B+-tree node can address: a
	// node stores its cell-area start in a uint16, which a 64 KiB page
	// would wrap to 0.
	maxPageSize = 32 << 10
)

// ErrBadPage is returned for out-of-range or unallocated page accesses.
var ErrBadPage = errors.New("storage: invalid page access")

// PageFile manages fixed-size pages in an osal.File with a free list.
// It is safe for concurrent use, and reads and writes of distinct pages
// run concurrently: ReadPage, WritePage and NumPages take mu's shared
// side, so the sharded buffer manager's faults and write-backs from
// several shards reach the device at once. mu guards only the header
// state (pageCount, freeHead, dirtyHdr, closed) and the scratch buffer:
// Alloc, Free, FreePages, Sync and Close take its exclusive side, so
// they wait for in-flight page I/O and none runs beside them. Two calls
// on the same page are the caller's to order.
type PageFile struct {
	mu       sync.RWMutex
	f        osal.File
	pageSize int
	// pageCount counts all pages including the header page 0.
	pageCount uint32
	// freeHead is the first page of the free list (0 = empty). Freed
	// pages store the next free PageID in their first 4 bytes.
	freeHead PageID
	dirtyHdr bool
	closed   bool
	scratch  []byte
	// metrics observes physical page traffic when the Statistics
	// feature is composed; nil otherwise (recording is then a no-op).
	metrics *stats.Registry
	// tracer records per-I/O spans when the Tracing feature is
	// composed; nil otherwise.
	tracer *trace.Tracer
}

// SetMetrics attaches the Statistics feature's page-traffic metrics.
func (pf *PageFile) SetMetrics(m *stats.Registry) { pf.metrics = m }

// SetTracer attaches the Tracing feature's span recorder.
func (pf *PageFile) SetTracer(t *trace.Tracer) { pf.tracer = t }

// CreatePageFile initializes a new page file in f with the given page
// size, overwriting any existing content.
func CreatePageFile(f osal.File, pageSize int) (*PageFile, error) {
	if pageSize < minPageSize || pageSize > maxPageSize || pageSize%2 != 0 {
		return nil, fmt.Errorf("storage: unsupported page size %d", pageSize)
	}
	if err := f.Truncate(0); err != nil {
		return nil, err
	}
	pf := &PageFile{f: f, pageSize: pageSize, pageCount: 1, scratch: make([]byte, pageSize)}
	if err := pf.writeHeader(); err != nil {
		return nil, err
	}
	return pf, nil
}

// OpenPageFile opens an existing page file and validates its header.
func OpenPageFile(f osal.File) (*PageFile, error) {
	hdr := make([]byte, headerSize)
	if _, err := f.ReadAt(hdr, 0); err != nil {
		return nil, fmt.Errorf("storage: read header: %w", err)
	}
	if string(hdr[:8]) != fileMagic {
		return nil, fmt.Errorf("storage: bad magic %q", hdr[:8])
	}
	pageSize := int(binary.LittleEndian.Uint32(hdr[8:12]))
	if pageSize < minPageSize || pageSize > maxPageSize {
		return nil, fmt.Errorf("storage: corrupt page size %d", pageSize)
	}
	pf := &PageFile{
		f:         f,
		pageSize:  pageSize,
		pageCount: binary.LittleEndian.Uint32(hdr[12:16]),
		freeHead:  PageID(binary.LittleEndian.Uint32(hdr[16:20])),
		scratch:   make([]byte, pageSize),
	}
	if pf.pageCount == 0 {
		return nil, errors.New("storage: corrupt page count 0")
	}
	return pf, nil
}

func (pf *PageFile) writeHeader() error {
	hdr := make([]byte, headerSize)
	copy(hdr, fileMagic)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(pf.pageSize))
	binary.LittleEndian.PutUint32(hdr[12:16], pf.pageCount)
	binary.LittleEndian.PutUint32(hdr[16:20], uint32(pf.freeHead))
	if _, err := pf.f.WriteAt(hdr, 0); err != nil {
		return fmt.Errorf("storage: write header: %w", err)
	}
	pf.dirtyHdr = false
	return nil
}

// PageSize implements Pager.
func (pf *PageFile) PageSize() int { return pf.pageSize }

// NumPages returns the number of allocated pages including the header.
func (pf *PageFile) NumPages() uint32 {
	pf.mu.RLock()
	defer pf.mu.RUnlock()
	return pf.pageCount
}

func (pf *PageFile) offset(id PageID) int64 { return int64(id) * int64(pf.pageSize) }

// Alloc implements Pager. Errors are wrapped in *PageError carrying
// the page ID being allocated and the "alloc" operation.
func (pf *PageFile) Alloc() (PageID, error) {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	if pf.closed {
		return 0, errors.New("storage: page file is closed")
	}
	pf.metrics.Add(stats.PagerAllocs, 1)
	if pf.freeHead != InvalidPage {
		id := pf.freeHead
		var next [4]byte
		if _, err := pf.f.ReadAt(next[:], pf.offset(id)); err != nil {
			return 0, pageErr("alloc", id, fmt.Errorf("read free list: %w", err))
		}
		pf.freeHead = PageID(binary.LittleEndian.Uint32(next[:]))
		pf.dirtyHdr = true
		// Hand out zeroed pages regardless of history.
		for i := range pf.scratch {
			pf.scratch[i] = 0
		}
		if _, err := pf.f.WriteAt(pf.scratch, pf.offset(id)); err != nil {
			return 0, pageErr("alloc", id, err)
		}
		return id, nil
	}
	id := PageID(pf.pageCount)
	pf.pageCount++
	pf.dirtyHdr = true
	for i := range pf.scratch {
		pf.scratch[i] = 0
	}
	if _, err := pf.f.WriteAt(pf.scratch, pf.offset(id)); err != nil {
		return 0, pageErr("alloc", id, err)
	}
	return id, nil
}

// Free implements Pager. The page joins the free list and may be handed
// out again by Alloc. Errors are wrapped in *PageError carrying the
// page ID and the "free" operation.
func (pf *PageFile) Free(id PageID) error {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	if err := pf.check("free", id); err != nil {
		return err
	}
	pf.metrics.Add(stats.PagerFrees, 1)
	var next [4]byte
	binary.LittleEndian.PutUint32(next[:], uint32(pf.freeHead))
	if _, err := pf.f.WriteAt(next[:], pf.offset(id)); err != nil {
		return pageErr("free", id, err)
	}
	pf.freeHead = id
	pf.dirtyHdr = true
	return nil
}

// check rejects accesses to page 0 and to pages past NumPages with a
// *PageError wrapping ErrBadPage.
func (pf *PageFile) check(op string, id PageID) error {
	if pf.closed {
		return errors.New("storage: page file is closed")
	}
	if id == InvalidPage || uint32(id) >= pf.pageCount {
		return pageErr(op, id, fmt.Errorf("out of range [1,%d): %w", pf.pageCount, ErrBadPage))
	}
	return nil
}

// FreePages walks the free list and returns the IDs on it, in list
// order. A cycle or out-of-range link is reported as a *PageError
// wrapping ErrBadPage — a corrupt free list must not loop a scrub pass
// forever.
func (pf *PageFile) FreePages() ([]PageID, error) {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	if pf.closed {
		return nil, errors.New("storage: page file is closed")
	}
	var out []PageID
	seen := make(map[PageID]bool)
	for id := pf.freeHead; id != InvalidPage; {
		if seen[id] || uint32(id) >= pf.pageCount {
			return nil, pageErr("free-list", id, fmt.Errorf("corrupt free list link: %w", ErrBadPage))
		}
		seen[id] = true
		out = append(out, id)
		var next [4]byte
		if _, err := pf.f.ReadAt(next[:], pf.offset(id)); err != nil {
			return nil, pageErr("free-list", id, err)
		}
		id = PageID(binary.LittleEndian.Uint32(next[:]))
	}
	return out, nil
}

// ReadPage implements Pager.
func (pf *PageFile) ReadPage(id PageID, buf []byte) error { return pf.ReadPageIn(nil, id, buf) }

// ReadPageIn implements SpanPager.
func (pf *PageFile) ReadPageIn(parent *trace.Span, id PageID, buf []byte) error {
	pf.mu.RLock()
	defer pf.mu.RUnlock()
	if err := pf.check("read", id); err != nil {
		return err
	}
	if len(buf) != pf.pageSize {
		return fmt.Errorf("storage: buffer size %d != page size %d", len(buf), pf.pageSize)
	}
	pf.metrics.Add(stats.PagerReads, 1)
	sp := pf.tracer.Start(parent, trace.LayerPager, "read")
	sp.Page(uint32(id))
	if _, err := pf.f.ReadAt(buf, pf.offset(id)); err != nil {
		sp.Fail(err)
		sp.End()
		return pageErr("read", id, err)
	}
	sp.End()
	return nil
}

// WritePage implements Pager.
func (pf *PageFile) WritePage(id PageID, buf []byte) error { return pf.WritePageIn(nil, id, buf) }

// WritePageIn implements SpanPager.
func (pf *PageFile) WritePageIn(parent *trace.Span, id PageID, buf []byte) error {
	pf.mu.RLock()
	defer pf.mu.RUnlock()
	if err := pf.check("write", id); err != nil {
		return err
	}
	if len(buf) != pf.pageSize {
		return fmt.Errorf("storage: buffer size %d != page size %d", len(buf), pf.pageSize)
	}
	pf.metrics.Add(stats.PagerWrites, 1)
	sp := pf.tracer.Start(parent, trace.LayerPager, "write")
	sp.Page(uint32(id))
	if _, err := pf.f.WriteAt(buf, pf.offset(id)); err != nil {
		sp.Fail(err)
		sp.End()
		return pageErr("write", id, err)
	}
	sp.End()
	return nil
}

// Sync implements Pager: the header is flushed first, then the file is
// made durable.
func (pf *PageFile) Sync() error {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	return pf.syncLocked()
}

func (pf *PageFile) syncLocked() error {
	if pf.closed {
		return errors.New("storage: page file is closed")
	}
	if pf.dirtyHdr {
		if err := pf.writeHeader(); err != nil {
			return err
		}
	}
	pf.metrics.Add(stats.PagerSyncs, 1)
	sp := pf.tracer.Start(nil, trace.LayerPager, "sync")
	err := pf.f.Sync()
	sp.Fail(err)
	sp.End()
	return err
}

// Close implements Pager.
func (pf *PageFile) Close() error {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	if pf.closed {
		return errors.New("storage: page file already closed")
	}
	if err := pf.syncLocked(); err != nil {
		return err
	}
	pf.closed = true
	return pf.f.Close()
}
