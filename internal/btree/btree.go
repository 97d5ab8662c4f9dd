package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"famedb/internal/stats"
	"famedb/internal/storage"
	"famedb/internal/trace"
)

// Tree is a persistent B+-tree. All keys are unique; Insert overwrites
// (upsert), Update only touches existing keys.
//
// Deletion removes entries but never merges pages (the strategy of
// several production trees): a page whose entries are all deleted stays
// in the tree and is refilled by later inserts into its key range.
// Compact rebuilds the tree densely and reclaims such pages — in the
// product line that is part of the Compact feature.
//
// A Tree is not safe for concurrent use; in concurrent configurations
// the transaction manager (Locking feature) serializes access.
type Tree struct {
	pager    storage.Seam
	metaPage storage.PageID
	root     storage.PageID
	count    uint64
	maxEntry int
	// metrics counts structural events when the Statistics feature is
	// composed; nil otherwise (recording is then a no-op).
	metrics *stats.Registry
	// tracer records tree operations as spans when the Tracing feature
	// is composed; nil otherwise.
	tracer *trace.Tracer
	// cow switches mutations to copy-on-write path-copying (the MVCC
	// feature): dirtied nodes are cloned into fresh pages and the pages
	// they replace accumulate in superseded until the version table
	// collects them with TakeSuperseded.
	cow        bool
	superseded []storage.PageID
	// bufs recycles node buffers (as *[]byte, so a Put boxes nothing).
	// A node buffer belongs to one descent: a read path hands it back
	// once it has picked the child or copied the value out, a write path
	// once writeNode has stored the node — no pager keeps the caller's
	// buffer (see storage.Pager). So no descent leaves a garbage page
	// per level behind.
	bufs sync.Pool
	// meta is the meta page image writeMeta fills and writes; mutations
	// are serialized, so one buffer serves them all.
	meta []byte
	// visits counts pages materialized by readNode for the QueryStats
	// feature's EXPLAIN ANALYZE descent accounting. countVisits gates
	// it: the counter stays off (one predictable branch per node read)
	// unless a product with QueryStats enables it, and the gate is
	// atomic because MVCC snapshot readers descend concurrently with
	// the enabling engine.
	visits      atomic.Int64
	countVisits atomic.Bool
}

// EnableVisitCounter switches on per-node-read accounting (feature
// QueryStats). It stays off by default so uninstrumented products pay
// no atomic traffic on descents.
func (t *Tree) EnableVisitCounter() { t.countVisits.Store(true) }

// PageVisits returns the number of tree pages materialized by reads
// since the counter was enabled. Monotonic; readers take deltas.
func (t *Tree) PageVisits() int64 { return t.visits.Load() }

// pooledNode returns a node for page id over a pooled buffer, allocating
// one only when the pool is empty. Its contents are whatever the last
// user left: callers read a page into it or initNode it.
func (t *Tree) pooledNode(id storage.PageID) node {
	p, _ := t.bufs.Get().(*[]byte)
	if p == nil {
		b := make([]byte, t.pager.PageSize())
		p = &b
	}
	return node{buf: *p, id: id, pooled: p}
}

// release returns a node's buffer to the pool, once the node's cells can
// no longer be referenced and, on a write path, after writeNode.
func (t *Tree) release(n node) {
	if n.pooled != nil {
		t.bufs.Put(n.pooled)
	}
}

// SetTracer attaches the Tracing feature's span recorder.
func (t *Tree) SetTracer(tr *trace.Tracer) { t.tracer = tr }

// SetMetrics attaches the Statistics feature's tree metrics and reports
// the current height so the gauge is meaningful before the first split.
func (t *Tree) SetMetrics(m *stats.Registry) {
	t.metrics = m
	if m == nil {
		return
	}
	if h, err := t.height(nil); err == nil {
		m.Max(stats.BTreeHeight, int64(h))
	}
}

// height counts the levels on the leftmost root-to-leaf path (a leaf-only
// tree has height 1).
func (t *Tree) height(sp *trace.Span) (int, error) {
	h := 1
	id := t.root
	for {
		n, err := t.readNode(sp, id)
		if err != nil {
			return 0, err
		}
		if n.isLeaf() {
			t.release(n)
			return h, nil
		}
		h++
		id = n.leftChild()
		t.release(n)
	}
}

const treeMetaMagic = "FAMEBT01"

// maxEntrySize returns the largest key+value byte total permitted for a
// page size: a quarter page minus bookkeeping, so that a split always
// produces two valid nodes.
func maxEntrySize(pageSize int) int {
	return (pageSize-nodeHeaderSize)/4 - 3*offsetSize
}

// Create initializes an empty tree on the pager and returns it together
// with the meta page ID needed to reopen it.
func Create(p storage.Pager) (*Tree, storage.PageID, error) {
	metaID, err := p.Alloc()
	if err != nil {
		return nil, 0, err
	}
	rootID, err := p.Alloc()
	if err != nil {
		return nil, 0, err
	}
	rootBuf := make([]byte, p.PageSize())
	initNode(rootBuf, leafType)
	if err := p.WritePage(rootID, rootBuf); err != nil {
		return nil, 0, err
	}
	t := &Tree{
		pager:    storage.SeamOf(p),
		metaPage: metaID,
		root:     rootID,
		maxEntry: maxEntrySize(p.PageSize()),
		meta:     make([]byte, p.PageSize()),
	}
	if err := t.writeMeta(nil); err != nil {
		return nil, 0, err
	}
	return t, metaID, nil
}

// Open loads a tree from its meta page.
func Open(p storage.Pager, metaID storage.PageID) (*Tree, error) {
	return OpenIn(nil, p, metaID)
}

// OpenIn is Open for a caller that holds a span: the meta-page read
// records under sp (a statement faulting its table in) instead of as a
// root of its own.
func OpenIn(sp *trace.Span, p storage.Pager, metaID storage.PageID) (*Tree, error) {
	pager := storage.SeamOf(p)
	buf := make([]byte, p.PageSize())
	if err := pager.ReadIn(sp, metaID, buf); err != nil {
		return nil, err
	}
	if string(buf[:8]) != treeMetaMagic {
		return nil, fmt.Errorf("btree: page %d is not a tree meta page", metaID)
	}
	return &Tree{
		pager:    pager,
		metaPage: metaID,
		root:     storage.PageID(binary.LittleEndian.Uint32(buf[8:12])),
		count:    binary.LittleEndian.Uint64(buf[12:20]),
		maxEntry: maxEntrySize(p.PageSize()),
		meta:     buf,
	}, nil
}

func (t *Tree) writeMeta(sp *trace.Span) error {
	copy(t.meta, treeMetaMagic)
	binary.LittleEndian.PutUint32(t.meta[8:12], uint32(t.root))
	binary.LittleEndian.PutUint64(t.meta[12:20], t.count)
	return t.pager.WriteIn(sp, t.metaPage, t.meta)
}

// Len returns the number of stored entries.
func (t *Tree) Len() uint64 { return t.count }

// MetaPage returns the meta page ID (persist it to reopen the tree).
func (t *Tree) MetaPage() storage.PageID { return t.metaPage }

// readNode materializes a page; sp is the operation's span (nil when
// none is open), the parent of the page access's own spans.
func (t *Tree) readNode(sp *trace.Span, id storage.PageID) (node, error) {
	if t.countVisits.Load() {
		t.visits.Add(1)
	}
	n := t.pooledNode(id)
	if err := t.pager.ReadIn(sp, id, n.buf); err != nil {
		t.release(n)
		return node{}, err
	}
	if n.buf[0] != leafType && n.buf[0] != innerType {
		t.release(n)
		return node{}, fmt.Errorf("btree: page %d: %w", id, ErrCorrupt)
	}
	return n, nil
}

func (t *Tree) writeNode(sp *trace.Span, n node) error { return t.pager.WriteIn(sp, n.id, n.buf) }

// Get returns the value stored under key.
func (t *Tree) Get(key []byte) ([]byte, bool, error) { return t.GetIn(nil, key) }

// GetIn is Get recorded under the caller's span; a nil parent opens a
// root. The In variants of the other operations follow the same rule.
func (t *Tree) GetIn(parent *trace.Span, key []byte) ([]byte, bool, error) {
	sp := t.tracer.Start(parent, trace.LayerBTree, "get")
	defer sp.End()
	n, err := t.descendFrom(sp, t.root, key)
	if err != nil {
		sp.Fail(err)
		return nil, false, err
	}
	idx, found := n.search(key)
	if !found {
		t.release(n)
		return nil, false, nil
	}
	val := append([]byte(nil), n.leafValue(idx)...)
	t.release(n)
	return val, true, nil
}

// descendFrom walks from an arbitrary root (a pinned version's root in
// copy-on-write mode) to the leaf covering key.
func (t *Tree) descendFrom(sp *trace.Span, root storage.PageID, key []byte) (node, error) {
	id := root
	for {
		n, err := t.readNode(sp, id)
		if err != nil {
			return node{}, err
		}
		if n.isLeaf() {
			return n, nil
		}
		id = n.childFor(key)
		t.release(n)
		if id == storage.InvalidPage {
			return node{}, fmt.Errorf("btree: nil child in page %d: %w", n.id, ErrCorrupt)
		}
	}
}

// entry is the in-memory form of a cell used for splits and rebuilds.
type entry struct {
	key, val []byte
	child    storage.PageID
}

func (t *Tree) leafEntries(n node) []entry {
	es := make([]entry, n.numKeys())
	for i := range es {
		es[i] = entry{
			key: append([]byte(nil), n.key(i)...),
			val: append([]byte(nil), n.leafValue(i)...),
		}
	}
	return es
}

func (t *Tree) innerEntries(n node) []entry {
	es := make([]entry, n.numKeys())
	for i := range es {
		es[i] = entry{
			key:   append([]byte(nil), n.key(i)...),
			child: n.childAt(i),
		}
	}
	return es
}

// rewriteLeaf replaces n's cells with es, preserving header chaining.
func rewriteLeaf(n node, es []entry) {
	next := n.nextLeaf()
	initNode(n.buf, leafType)
	n.setNextLeaf(next)
	for i, e := range es {
		n.insertLeafCell(i, e.key, e.val)
	}
}

// rewriteInner replaces n's cells with es and sets the leftmost child.
func rewriteInner(n node, left storage.PageID, es []entry) {
	initNode(n.buf, innerType)
	n.setLeftChild(left)
	for i, e := range es {
		n.insertInnerCell(i, e.key, e.child)
	}
}

// splitResult reports a node split to the parent: sep separates the
// original (left) node from the new right node.
type splitResult struct {
	sep   []byte
	right storage.PageID
}

// ErrEmptyKey rejects empty keys, which the inner-node separator logic
// cannot represent.
var ErrEmptyKey = errors.New("btree: empty key")

// Insert stores value under key, overwriting any existing value.
func (t *Tree) Insert(key, value []byte) error { return t.InsertIn(nil, key, value) }

// InsertIn is Insert recorded under the caller's span.
func (t *Tree) InsertIn(parent *trace.Span, key, value []byte) error {
	if err := t.Check(key, value); err != nil {
		return err
	}
	_, err := t.write(parent, "insert", key, value, false)
	return err
}

// Check refuses an entry the tree can never hold: an empty key, or a
// key and value too large for a page. Insert makes the same test before
// it writes.
func (t *Tree) Check(key, value []byte) error {
	if len(key) == 0 {
		return ErrEmptyKey
	}
	if size := leafCellSize(key, value); size > t.maxEntry {
		return fmt.Errorf("%w: %d > %d bytes", ErrKeyTooLarge, size, t.maxEntry)
	}
	return nil
}

// write is the one write descent Insert and Update share. With
// onlyExisting the leaf leaves an absent key alone: nothing is shadowed
// or written, and found reports false.
func (t *Tree) write(parent *trace.Span, op string, key, value []byte, onlyExisting bool) (found bool, err error) {
	sp := t.tracer.Start(parent, trace.LayerBTree, op)
	defer sp.End()
	newRoot, split, found, err := t.insertAt(sp, t.root, key, value, onlyExisting)
	if err != nil {
		sp.Fail(err)
		return found, err
	}
	if newRoot == t.root && split == nil && (found || onlyExisting) {
		// An overwrite that kept the root, or an update of an absent
		// key: the meta page already holds this root and count.
		return found, nil
	}
	if newRoot != t.root {
		// Store the root only when it moved: an insert that keeps it
		// writes no field that a concurrent unlatched reader loads.
		t.root = newRoot
	}
	if split != nil {
		// Grow a new root.
		newRootID, err := t.pager.Alloc()
		if err != nil {
			return found, err
		}
		nr := t.pooledNode(newRootID)
		rewriteInner(nr, t.root, []entry{{key: split.sep, child: split.right}})
		err = t.writeNode(sp, nr)
		t.release(nr)
		if err != nil {
			return found, err
		}
		t.root = newRootID
		if t.metrics != nil {
			t.metrics.Add(stats.BTreeRootSplits, 1)
			if h, err := t.height(sp); err == nil {
				t.metrics.Max(stats.BTreeHeight, int64(h))
			}
		}
	}
	if !found {
		t.count++
	}
	return found, t.writeMeta(sp)
}

// insertAt inserts into the subtree rooted at id and returns the
// subtree's (possibly new) root page: in copy-on-write mode every
// modified node is shadowed into a fresh page, so the parent must
// re-point its child entry. Without copy-on-write the returned ID is
// always id. found reports whether key was already present;
// onlyExisting makes an absent key a no-op (see write).
func (t *Tree) insertAt(sp *trace.Span, id storage.PageID, key, value []byte, onlyExisting bool) (storage.PageID, *splitResult, bool, error) {
	n, err := t.readNode(sp, id)
	if err != nil {
		return id, nil, false, err
	}
	if n.isLeaf() {
		return t.insertLeaf(sp, n, key, value, onlyExisting)
	}
	defer t.release(n)
	ci := n.childIndexFor(key)
	childID := n.leftChild()
	if ci >= 0 {
		childID = n.childAt(ci)
	}
	newChild, split, found, err := t.insertAt(sp, childID, key, value, onlyExisting)
	if err != nil {
		return id, nil, false, err
	}
	if newChild == childID && split == nil {
		return id, nil, found, nil
	}
	if n, err = t.shadow(n); err != nil {
		return id, nil, false, err
	}
	if newChild != childID {
		if ci < 0 {
			n.setLeftChild(newChild)
		} else {
			n.setChildAt(ci, newChild)
		}
	}
	if split == nil {
		return n.id, nil, found, t.writeNode(sp, n)
	}
	// Insert the separator for the new right child.
	idx, dup := n.search(split.sep)
	if dup {
		return id, nil, false, fmt.Errorf("btree: separator %q already in inner node %d: %w",
			split.sep, n.id, ErrCorrupt)
	}
	if t.makeRoom(n, innerCellSize(split.sep)) {
		n.insertInnerCell(idx, split.sep, split.right)
		return n.id, nil, found, t.writeNode(sp, n)
	}
	// Inner split: rebuild both halves from the combined entry list.
	t.metrics.Add(stats.BTreeInnerSplits, 1)
	es := t.innerEntries(n)
	es = append(es[:idx:idx], append([]entry{{key: split.sep, child: split.right}}, es[idx:]...)...)
	// es[mid] moves up and the right node keeps es[mid+1:], so an append
	// split stops one entry earlier to leave the right node a key.
	atEnd, last := idx == len(es)-1, len(es)-1
	if atEnd {
		last--
	}
	mid := splitPoint(es, innerCellSize2, atEnd, last)
	promoted := es[mid]
	rightID, err := t.pager.Alloc()
	if err != nil {
		return id, nil, false, err
	}
	right := t.pooledNode(rightID)
	defer t.release(right)
	rewriteInner(right, promoted.child, es[mid+1:])
	rewriteInner(n, n.leftChild(), es[:mid])
	if err := t.writeNode(sp, n); err != nil {
		return id, nil, false, err
	}
	if err := t.writeNode(sp, right); err != nil {
		return id, nil, false, err
	}
	return n.id, &splitResult{sep: promoted.key, right: rightID}, found, nil
}

// makeRoom reports whether a cell of size bytes (plus its offset slot)
// fits in n. When only the garbage in n's cell area stands in the way,
// it compacts n first, staging the cells in a pooled page; a node that
// would not fit even then is left as it is for the caller to split.
func (t *Tree) makeRoom(n node, size int) bool {
	need := size + offsetSize
	if n.freeBytes() >= need {
		return true
	}
	if n.freeBytes()+n.garbageBytes() < need {
		return false
	}
	scratch := t.pooledNode(storage.InvalidPage)
	n.compact(scratch.buf)
	t.release(scratch)
	return true
}

func (t *Tree) insertLeaf(sp *trace.Span, n node, key, value []byte, onlyExisting bool) (storage.PageID, *splitResult, bool, error) {
	defer t.release(n)
	idx, found := n.search(key)
	if !found && onlyExisting {
		return n.id, nil, false, nil
	}
	var err error
	if n, err = t.shadow(n); err != nil {
		return n.id, nil, false, err
	}
	if found {
		if old := n.leafValue(idx); len(old) == len(value) {
			// Same size: overwrite the value where it lies. No garbage,
			// no split, however full the leaf is.
			copy(old, value)
			return n.id, nil, true, t.writeNode(sp, n)
		}
		n.removeCell(idx)
	}
	if t.makeRoom(n, leafCellSize(key, value)) {
		n.insertLeafCell(idx, key, value)
		return n.id, nil, found, t.writeNode(sp, n)
	}
	// Leaf split.
	t.metrics.Add(stats.BTreeLeafSplits, 1)
	es := t.leafEntries(n)
	es = append(es[:idx:idx], append([]entry{{key: key, val: value}}, es[idx:]...)...)
	mid := splitPoint(es, leafCellSize2, idx == len(es)-1, len(es)-1)
	rightID, err := t.pager.Alloc()
	if err != nil {
		return n.id, nil, false, err
	}
	right := t.pooledNode(rightID)
	defer t.release(right)
	initNode(right.buf, leafType)
	if !t.cow {
		// Copy-on-write trees keep no leaf chain: a shadowed leaf would
		// leave its left sibling's pointer stale, so scans descend from
		// the root instead.
		right.setNextLeaf(n.nextLeaf())
	}
	rewriteLeaf(right, es[mid:])
	rewriteLeaf(n, es[:mid])
	if !t.cow {
		n.setNextLeaf(rightID)
	}
	if err := t.writeNode(sp, n); err != nil {
		return n.id, nil, false, err
	}
	if err := t.writeNode(sp, right); err != nil {
		return n.id, nil, false, err
	}
	sep := append([]byte(nil), es[mid].key...)
	return n.id, &splitResult{sep: sep, right: rightID}, found, nil
}

func leafCellSize2(e entry) int  { return leafCellSize(e.key, e.val) }
func innerCellSize2(e entry) int { return innerCellSize(e.key) }

// appendFillTenths is the share of a splitting node's bytes, in tenths,
// that the left node keeps when the insert lands after the node's last
// cell. A key-ordered insert stream only ever adds at the end of a node,
// so the left node is never written again: a balanced split would leave
// it half full for good, this one leaves it nine tenths full. The rule
// holds at the end of any node, not only the rightmost leaf, so that
// interleaved ascending streams (one per client or sensor) pack too.
const appendFillTenths = 9

// splitPoint returns the index m (1 <= m <= last, last < len(es)) at
// which es splits into es[:m] and es[m:]. A balanced split takes the
// smallest m whose prefix holds half the bytes; an append split (atEnd:
// the new cell is es[len(es)-1]) takes appendFillTenths of them. The
// prefix of an append split always fits the page: it never reaches the
// new cell, so it is part of what the node held before.
func splitPoint(es []entry, size func(entry) int, atEnd bool, last int) int {
	tenths := 5
	if atEnd {
		tenths = appendFillTenths
	}
	total := 0
	for _, e := range es {
		total += size(e)
	}
	acc := 0
	for i, e := range es[:last] {
		acc += size(e)
		if acc >= total*tenths/10 {
			return i + 1
		}
	}
	return last
}

// Update replaces the value of an existing key; it reports whether the
// key was present.
func (t *Tree) Update(key, value []byte) (bool, error) { return t.UpdateIn(nil, key, value) }

// UpdateIn is Update recorded under the caller's span. It descends
// once: the leaf answers "absent" before anything is shadowed or
// written.
func (t *Tree) UpdateIn(parent *trace.Span, key, value []byte) (bool, error) {
	if len(key) == 0 {
		return false, nil
	}
	if size := leafCellSize(key, value); size > t.maxEntry {
		// Too large to store: a present key is an error, an absent one
		// is simply not updated.
		_, found, err := t.GetIn(parent, key)
		if err != nil || !found {
			return false, err
		}
		return true, fmt.Errorf("%w: %d > %d bytes", ErrKeyTooLarge, size, t.maxEntry)
	}
	return t.write(parent, "update", key, value, true)
}

// Delete removes key and reports whether it was present.
func (t *Tree) Delete(key []byte) (bool, error) { return t.DeleteIn(nil, key) }

// DeleteIn is Delete recorded under the caller's span.
func (t *Tree) DeleteIn(parent *trace.Span, key []byte) (bool, error) {
	if len(key) == 0 {
		return false, nil
	}
	sp := t.tracer.Start(parent, trace.LayerBTree, "delete")
	defer sp.End()
	newRoot, deleted, err := t.deleteAt(sp, t.root, key)
	if err != nil {
		sp.Fail(err)
		return false, err
	}
	if !deleted {
		return false, nil
	}
	t.root = newRoot
	t.count--
	return true, t.writeMeta(sp)
}

// deleteAt removes key from the subtree rooted at id and returns the
// subtree's (possibly new) root page — fresh when copy-on-write
// shadowed the path, id itself otherwise.
func (t *Tree) deleteAt(sp *trace.Span, id storage.PageID, key []byte) (storage.PageID, bool, error) {
	n, err := t.readNode(sp, id)
	if err != nil {
		return id, false, err
	}
	defer t.release(n)
	if n.isLeaf() {
		idx, found := n.search(key)
		if !found {
			return id, false, nil
		}
		if n, err = t.shadow(n); err != nil {
			return id, false, err
		}
		n.removeCell(idx)
		return n.id, true, t.writeNode(sp, n)
	}
	ci := n.childIndexFor(key)
	childID := n.leftChild()
	if ci >= 0 {
		childID = n.childAt(ci)
	}
	if childID == storage.InvalidPage {
		return id, false, fmt.Errorf("btree: nil child in page %d: %w", n.id, ErrCorrupt)
	}
	newChild, deleted, err := t.deleteAt(sp, childID, key)
	if err != nil || !deleted || newChild == childID {
		return id, deleted, err
	}
	if n, err = t.shadow(n); err != nil {
		return id, false, err
	}
	if ci < 0 {
		n.setLeftChild(newChild)
	} else {
		n.setChildAt(ci, newChild)
	}
	return n.id, true, t.writeNode(sp, n)
}

// Scan calls fn for each entry with from <= key < to, in key order.
// A nil from starts at the first key; a nil to runs to the end.
// Returning false from fn stops the scan. Key and value slices are only
// valid during the call.
func (t *Tree) Scan(from, to []byte, fn func(key, value []byte) bool) error {
	return t.ScanIn(nil, from, to, fn)
}

// ScanIn is Scan recorded under the caller's span.
func (t *Tree) ScanIn(parent *trace.Span, from, to []byte, fn func(key, value []byte) bool) error {
	sp := t.tracer.Start(parent, trace.LayerBTree, "scan")
	defer sp.End()
	if t.cow {
		// No leaf chain to follow in copy-on-write mode; descend instead.
		return t.scanFrom(sp, t.root, from, to, fn)
	}
	var n node
	var err error
	first := 0
	if from == nil {
		n, err = t.leftmostLeaf(sp)
	} else if n, err = t.descendFrom(sp, t.root, from); err == nil {
		// Seek: the first leaf starts at from; later leaves start at 0.
		first, _ = n.search(from)
	}
	if err != nil {
		return err
	}
	for {
		for i := first; i < n.numKeys(); i++ {
			k := n.key(i)
			if to != nil && bytes.Compare(k, to) >= 0 {
				t.release(n)
				return nil
			}
			if !fn(k, n.leafValue(i)) {
				t.release(n)
				return nil
			}
		}
		next := n.nextLeaf()
		t.release(n)
		if next == storage.InvalidPage {
			return nil
		}
		first = 0
		n, err = t.readNode(sp, next)
		if err != nil {
			return err
		}
	}
}

func (t *Tree) leftmostLeaf(sp *trace.Span) (node, error) {
	id := t.root
	for {
		n, err := t.readNode(sp, id)
		if err != nil {
			return node{}, err
		}
		if n.isLeaf() {
			return n, nil
		}
		id = n.leftChild()
		t.release(n)
	}
}

// Compact rebuilds the tree densely into fresh pages and frees every
// old page. It is the online part of the product line's Compact
// feature.
func (t *Tree) Compact() error {
	type kv struct{ k, v []byte }
	var all []kv
	if err := t.Scan(nil, nil, func(k, v []byte) bool {
		all = append(all, kv{append([]byte(nil), k...), append([]byte(nil), v...)})
		return true
	}); err != nil {
		return err
	}
	// Collect old pages before rebuilding.
	old, err := t.allPages()
	if err != nil {
		return err
	}
	rootID, err := t.pager.Alloc()
	if err != nil {
		return err
	}
	buf := make([]byte, t.pager.PageSize())
	initNode(buf, leafType)
	if err := t.pager.WritePage(rootID, buf); err != nil {
		return err
	}
	t.root = rootID
	t.count = 0
	if err := t.writeMeta(nil); err != nil {
		return err
	}
	for _, e := range all {
		if err := t.Insert(e.k, e.v); err != nil {
			return err
		}
	}
	if t.cow {
		// Snapshots may still pin the old tree: its pages reclaim
		// through the version table once the last pin releases.
		t.superseded = append(t.superseded, old...)
	} else {
		for _, id := range old {
			if err := t.pager.Free(id); err != nil {
				return err
			}
		}
	}
	t.metrics.Add(stats.BTreeCompactions, 1)
	t.metrics.Add(stats.BTreePagesFreed, int64(len(old)))
	return nil
}

// Drop frees every page of the tree, its meta page included; the tree
// must not be used afterwards. A copy-on-write tree refuses: snapshots
// may still read its pages.
func (t *Tree) Drop() error {
	if t.cow {
		return errors.New("btree: a copy-on-write tree cannot be dropped")
	}
	pages, err := t.allPages()
	if err != nil {
		return err
	}
	for _, id := range append(pages, t.metaPage) {
		if err := t.pager.Free(id); err != nil {
			return err
		}
	}
	return nil
}

// allPages returns every page of the tree except the meta page.
func (t *Tree) allPages() ([]storage.PageID, error) {
	var out []storage.PageID
	var walk func(id storage.PageID) error
	walk = func(id storage.PageID) error {
		n, err := t.readNode(nil, id)
		if err != nil {
			return err
		}
		out = append(out, id)
		if n.isLeaf() {
			return nil
		}
		if err := walk(n.leftChild()); err != nil {
			return err
		}
		for i := 0; i < n.numKeys(); i++ {
			if err := walk(n.childAt(i)); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root); err != nil {
		return nil, err
	}
	return out, nil
}

// Verify checks the tree's structural invariants: node-local ordering,
// separator bounds, leaf-chain ordering, and that the entry count
// matches the meta page. It is the core of the case study's Verify
// feature.
func (t *Tree) Verify() error {
	var leaves []storage.PageID
	var counted uint64
	var check func(id storage.PageID, lo, hi []byte) error
	check = func(id storage.PageID, lo, hi []byte) error {
		n, err := t.readNode(nil, id)
		if err != nil {
			return err
		}
		if err := n.validate(t.pager.PageSize()); err != nil {
			return fmt.Errorf("page %d: %w", id, err)
		}
		for i := 0; i < n.numKeys(); i++ {
			k := n.key(i)
			if lo != nil && bytes.Compare(k, lo) < 0 {
				return fmt.Errorf("page %d key %d below subtree bound: %w", id, i, ErrCorrupt)
			}
			if hi != nil && bytes.Compare(k, hi) >= 0 {
				return fmt.Errorf("page %d key %d above subtree bound: %w", id, i, ErrCorrupt)
			}
		}
		if n.isLeaf() {
			leaves = append(leaves, id)
			counted += uint64(n.numKeys())
			return nil
		}
		// Children: leftmost covers [lo, key0); cell i covers
		// [key_i, key_{i+1}).
		first := hi
		if n.numKeys() > 0 {
			first = n.key(0)
		}
		if err := check(n.leftChild(), lo, first); err != nil {
			return err
		}
		for i := 0; i < n.numKeys(); i++ {
			childHi := hi
			if i+1 < n.numKeys() {
				childHi = n.key(i + 1)
			}
			if err := check(n.childAt(i), n.key(i), childHi); err != nil {
				return err
			}
		}
		return nil
	}
	if err := check(t.root, nil, nil); err != nil {
		return err
	}
	if counted != t.count {
		return fmt.Errorf("count mismatch: meta %d, found %d: %w", t.count, counted, ErrCorrupt)
	}
	if t.cow {
		// Copy-on-write trees keep no leaf chain (a shadowed leaf would
		// leave its left sibling's pointer stale): every leaf must carry
		// an invalid next pointer instead.
		for _, id := range leaves {
			n, err := t.readNode(nil, id)
			if err != nil {
				return err
			}
			if n.nextLeaf() != storage.InvalidPage {
				return fmt.Errorf("page %d: leaf chain link in copy-on-write tree: %w", id, ErrCorrupt)
			}
		}
		return nil
	}
	// The leaf chain must visit exactly the tree's leaves in order.
	n, err := t.leftmostLeaf(nil)
	if err != nil {
		return err
	}
	var chain []storage.PageID
	var prevKey []byte
	for {
		chain = append(chain, n.id)
		for i := 0; i < n.numKeys(); i++ {
			k := n.key(i)
			if prevKey != nil && bytes.Compare(prevKey, k) >= 0 {
				return fmt.Errorf("leaf chain out of order at page %d: %w", n.id, ErrCorrupt)
			}
			prevKey = append(prevKey[:0], k...)
		}
		next := n.nextLeaf()
		if next == storage.InvalidPage {
			break
		}
		n, err = t.readNode(nil, next)
		if err != nil {
			return err
		}
	}
	if len(chain) != len(leaves) {
		return fmt.Errorf("leaf chain has %d pages, tree has %d leaves: %w",
			len(chain), len(leaves), ErrCorrupt)
	}
	return nil
}
