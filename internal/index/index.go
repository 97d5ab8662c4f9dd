// Package index defines the Index feature abstraction of FAME-DBMS
// (Fig. 2) and its two alternatives: the paged B+-tree (adapting
// internal/btree) and the unordered List index for tiny data sets.
//
// The B+-tree adapter honors the fine-grained subfeatures BTreeSearch,
// BTreeUpdate and BTreeRemove: an operation whose subfeature is not
// selected returns ErrOpNotComposed, exactly like calling functionality
// that was never composed into a FeatureC++ product.
package index

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"famedb/internal/btree"
	"famedb/internal/storage"
	"famedb/internal/trace"
)

// ErrOpNotComposed is returned when an operation's feature was not
// selected for this product.
var ErrOpNotComposed = errors.New("index: operation not composed into this product")

// Index is the abstract index feature: a map from byte keys to byte
// values. Scan visits entries with from <= key < to; ordering is
// guaranteed for the B+-tree and unspecified for the List.
type Index interface {
	// Name returns the implementing feature name ("BPlusTree" or
	// "ListIndex").
	Name() string
	// Insert stores value under key, replacing an existing entry.
	Insert(key, value []byte) error
	// Get returns the value under key.
	Get(key []byte) ([]byte, bool, error)
	// Delete removes key, reporting whether it existed.
	Delete(key []byte) (bool, error)
	// Update replaces the value of an existing key only.
	Update(key, value []byte) (bool, error)
	// Scan visits entries in [from, to); nil bounds are open. The
	// callback returning false stops the scan.
	Scan(from, to []byte, fn func(key, value []byte) bool) error
	// Len returns the number of entries.
	Len() (uint64, error)
}

// SpanIndex is the span-carrying side of an Index that records spans:
// the same operations with the caller's span as the parent of whatever
// the index records. BTree implements it; its plain methods are the
// same bodies with a nil parent. List does not — page spans under a
// List index are parentless roots.
type SpanIndex interface {
	InsertIn(parent *trace.Span, key, value []byte) error
	GetIn(parent *trace.Span, key []byte) ([]byte, bool, error)
	DeleteIn(parent *trace.Span, key []byte) (bool, error)
	UpdateIn(parent *trace.Span, key, value []byte) (bool, error)
	ScanIn(parent *trace.Span, from, to []byte, fn func(key, value []byte) bool) error
}

// Checker is implemented by an index that can refuse an entry before
// it is written. The transaction manager asks it before it buffers a
// write, so the log never holds a record the index cannot apply.
type Checker interface {
	Check(key, value []byte) error
}

// Seam is an Index as a span-holding caller holds it: the Index plus
// its SpanIndex side, asserted once at construction. Each In method
// hands parent down when there is one to hand and the index takes it;
// otherwise it is exactly the plain Index call.
type Seam struct {
	Index
	in SpanIndex
}

// SeamOf binds idx for a span-holding caller.
func SeamOf(idx Index) Seam {
	in, _ := idx.(SpanIndex)
	return Seam{Index: idx, in: in}
}

// InsertIn is Index.Insert under parent.
func (s Seam) InsertIn(parent *trace.Span, key, value []byte) error {
	if parent != nil && s.in != nil {
		return s.in.InsertIn(parent, key, value)
	}
	return s.Index.Insert(key, value)
}

// GetIn is Index.Get under parent.
func (s Seam) GetIn(parent *trace.Span, key []byte) ([]byte, bool, error) {
	if parent != nil && s.in != nil {
		return s.in.GetIn(parent, key)
	}
	return s.Index.Get(key)
}

// DeleteIn is Index.Delete under parent.
func (s Seam) DeleteIn(parent *trace.Span, key []byte) (bool, error) {
	if parent != nil && s.in != nil {
		return s.in.DeleteIn(parent, key)
	}
	return s.Index.Delete(key)
}

// UpdateIn is Index.Update under parent.
func (s Seam) UpdateIn(parent *trace.Span, key, value []byte) (bool, error) {
	if parent != nil && s.in != nil {
		return s.in.UpdateIn(parent, key, value)
	}
	return s.Index.Update(key, value)
}

// Check asks the index whether it can hold key and value; an index
// that is no Checker accepts every entry.
func (s Seam) Check(key, value []byte) error {
	if c, ok := s.Index.(Checker); ok {
		return c.Check(key, value)
	}
	return nil
}

// ScanIn is Index.Scan under parent.
func (s Seam) ScanIn(parent *trace.Span, from, to []byte, fn func(key, value []byte) bool) error {
	if parent != nil && s.in != nil {
		return s.in.ScanIn(parent, from, to, fn)
	}
	return s.Index.Scan(from, to, fn)
}

// --- B+-tree adapter ---

// BTreeOps selects the fine-grained B+-tree subfeatures composed into a
// product.
type BTreeOps struct {
	// Search enables Get and Scan (feature BTreeSearch).
	Search bool
	// Update enables Update (feature BTreeUpdate).
	Update bool
	// Remove enables Delete (feature BTreeRemove).
	Remove bool
}

// AllBTreeOps selects every subfeature.
func AllBTreeOps() BTreeOps { return BTreeOps{Search: true, Update: true, Remove: true} }

// BTree adapts btree.Tree to Index with feature gating.
type BTree struct {
	tree *btree.Tree
	ops  BTreeOps
}

// CreateBTree creates a fresh B+-tree index; the returned meta page
// reopens it.
func CreateBTree(p storage.Pager, ops BTreeOps) (*BTree, storage.PageID, error) {
	t, meta, err := btree.Create(p)
	if err != nil {
		return nil, 0, err
	}
	return &BTree{tree: t, ops: ops}, meta, nil
}

// OpenBTree opens an existing B+-tree index.
func OpenBTree(p storage.Pager, meta storage.PageID, ops BTreeOps) (*BTree, error) {
	return OpenBTreeIn(nil, p, meta, ops)
}

// OpenBTreeIn is OpenBTree with the meta-page read recorded under sp.
func OpenBTreeIn(sp *trace.Span, p storage.Pager, meta storage.PageID, ops BTreeOps) (*BTree, error) {
	t, err := btree.OpenIn(sp, p, meta)
	if err != nil {
		return nil, err
	}
	return &BTree{tree: t, ops: ops}, nil
}

// Tree exposes the underlying tree (for Verify and Compact features).
func (b *BTree) Tree() *btree.Tree { return b.tree }

// EnableVisitCounter switches on the tree's page-visit accounting
// (feature QueryStats); the SQL engine discovers it by interface
// assertion, so the List index — with no pages to count — simply
// does not implement it.
func (b *BTree) EnableVisitCounter() { b.tree.EnableVisitCounter() }

// PageVisits returns the tree pages materialized by reads since the
// counter was enabled.
func (b *BTree) PageVisits() int64 { return b.tree.PageVisits() }

// Name implements Index.
func (b *BTree) Name() string { return "BPlusTree" }

// Drop frees every page of the index; it must not be used afterwards.
func (b *BTree) Drop() error { return b.tree.Drop() }

// Insert implements Index.
func (b *BTree) Insert(key, value []byte) error { return b.InsertIn(nil, key, value) }

// InsertIn implements SpanIndex.
func (b *BTree) InsertIn(parent *trace.Span, key, value []byte) error {
	return b.tree.InsertIn(parent, key, value)
}

// Check implements Checker.
func (b *BTree) Check(key, value []byte) error { return b.tree.Check(key, value) }

// Get implements Index.
func (b *BTree) Get(key []byte) ([]byte, bool, error) { return b.GetIn(nil, key) }

// GetIn implements SpanIndex.
func (b *BTree) GetIn(parent *trace.Span, key []byte) ([]byte, bool, error) {
	if !b.ops.Search {
		return nil, false, fmt.Errorf("BTreeSearch: %w", ErrOpNotComposed)
	}
	return b.tree.GetIn(parent, key)
}

// Delete implements Index.
func (b *BTree) Delete(key []byte) (bool, error) { return b.DeleteIn(nil, key) }

// DeleteIn implements SpanIndex.
func (b *BTree) DeleteIn(parent *trace.Span, key []byte) (bool, error) {
	if !b.ops.Remove {
		return false, fmt.Errorf("BTreeRemove: %w", ErrOpNotComposed)
	}
	return b.tree.DeleteIn(parent, key)
}

// Update implements Index.
func (b *BTree) Update(key, value []byte) (bool, error) { return b.UpdateIn(nil, key, value) }

// UpdateIn implements SpanIndex.
func (b *BTree) UpdateIn(parent *trace.Span, key, value []byte) (bool, error) {
	if !b.ops.Update {
		return false, fmt.Errorf("BTreeUpdate: %w", ErrOpNotComposed)
	}
	return b.tree.UpdateIn(parent, key, value)
}

// Scan implements Index (ordered).
func (b *BTree) Scan(from, to []byte, fn func(key, value []byte) bool) error {
	return b.ScanIn(nil, from, to, fn)
}

// ScanIn implements SpanIndex.
func (b *BTree) ScanIn(parent *trace.Span, from, to []byte, fn func(key, value []byte) bool) error {
	if !b.ops.Search {
		return fmt.Errorf("BTreeSearch: %w", ErrOpNotComposed)
	}
	return b.tree.ScanIn(parent, from, to, fn)
}

// Len implements Index.
func (b *BTree) Len() (uint64, error) { return b.tree.Len(), nil }

// --- List index ---

// List is the ListIndex alternative: records in a heap file, located by
// linear scan. It trades all lookup performance for the smallest
// possible code footprint — the right choice on a sensor node storing a
// few hundred readings (paper Sec. 2.3: functionality used in highly
// resource-constrained environments).
type List struct {
	heap  *storage.HeapFile
	count uint64
}

// CreateList creates an empty list index; the returned head page
// reopens it.
func CreateList(p storage.Pager) (*List, storage.PageID, error) {
	h, head, err := storage.CreateHeap(p)
	if err != nil {
		return nil, 0, err
	}
	return &List{heap: h}, head, nil
}

// OpenList opens an existing list index.
func OpenList(p storage.Pager, head storage.PageID) (*List, error) {
	h, err := storage.OpenHeap(p, head)
	if err != nil {
		return nil, err
	}
	l := &List{heap: h}
	n, err := h.Len()
	if err != nil {
		return nil, err
	}
	l.count = uint64(n)
	return l, nil
}

// encodeEntry packs key and value into one heap record.
func encodeEntry(key, value []byte) []byte {
	out := binary.AppendUvarint(nil, uint64(len(key)))
	out = append(out, key...)
	return append(out, value...)
}

// decodeEntry unpacks a heap record.
func decodeEntry(rec []byte) (key, value []byte, err error) {
	klen, sz := binary.Uvarint(rec)
	if sz <= 0 || uint64(len(rec)-sz) < klen {
		return nil, nil, errors.New("index: corrupt list entry")
	}
	return rec[sz : sz+int(klen)], rec[sz+int(klen):], nil
}

// find locates key's RID by linear scan.
func (l *List) find(key []byte) (storage.RID, []byte, bool, error) {
	var foundRID storage.RID
	var foundVal []byte
	found := false
	err := l.heap.Scan(func(rid storage.RID, rec []byte) bool {
		k, v, derr := decodeEntry(rec)
		if derr != nil {
			return true
		}
		if bytes.Equal(k, key) {
			foundRID = rid
			foundVal = append([]byte(nil), v...)
			found = true
			return false
		}
		return true
	})
	return foundRID, foundVal, found, err
}

// Name implements Index.
func (l *List) Name() string { return "ListIndex" }

// Insert implements Index.
func (l *List) Insert(key, value []byte) error {
	rid, _, found, err := l.find(key)
	if err != nil {
		return err
	}
	if found {
		_, err := l.heap.Update(rid, encodeEntry(key, value))
		return err
	}
	if _, err := l.heap.Insert(encodeEntry(key, value)); err != nil {
		return err
	}
	l.count++
	return nil
}

// Check implements Checker: the entry's heap record must fit a page.
func (l *List) Check(key, value []byte) error {
	var n [binary.MaxVarintLen64]byte
	return l.heap.Check(binary.PutUvarint(n[:], uint64(len(key))) + len(key) + len(value))
}

// Get implements Index.
func (l *List) Get(key []byte) ([]byte, bool, error) {
	_, v, found, err := l.find(key)
	return v, found, err
}

// Delete implements Index.
func (l *List) Delete(key []byte) (bool, error) {
	rid, _, found, err := l.find(key)
	if err != nil || !found {
		return false, err
	}
	if err := l.heap.Delete(rid); err != nil {
		return false, err
	}
	l.count--
	return true, nil
}

// Update implements Index.
func (l *List) Update(key, value []byte) (bool, error) {
	rid, _, found, err := l.find(key)
	if err != nil || !found {
		return false, err
	}
	if _, err := l.heap.Update(rid, encodeEntry(key, value)); err != nil {
		return false, err
	}
	return true, nil
}

// Scan implements Index. The visit order is storage order, not key
// order; the [from, to) filter still applies.
func (l *List) Scan(from, to []byte, fn func(key, value []byte) bool) error {
	return l.heap.Scan(func(rid storage.RID, rec []byte) bool {
		k, v, err := decodeEntry(rec)
		if err != nil {
			return true
		}
		if from != nil && bytes.Compare(k, from) < 0 {
			return true
		}
		if to != nil && bytes.Compare(k, to) >= 0 {
			return true
		}
		return fn(k, v)
	})
}

// Len implements Index.
func (l *List) Len() (uint64, error) { return l.count, nil }

// Drop frees every page of the index; it must not be used afterwards.
func (l *List) Drop() error { return l.heap.Drop() }
