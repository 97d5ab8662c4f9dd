// Copy-on-write mode: the mutation half of the MVCC feature.
//
// With copy-on-write enabled every mutation clones the dirtied
// root-to-leaf path into fresh pages (shadow paging in the LMDB
// tradition) instead of updating nodes in place. Committed pages are
// therefore immutable until reclaimed, which lets snapshot readers
// traverse a pinned root without any locking: nothing they can reach
// is ever overwritten while they hold the pin. The pages a mutation
// replaces accumulate in the tree's superseded set; the version table
// (versions.go) collects them at install time and returns them to the
// pager's free list once the last reader of the old version releases.
//
// One structural consequence: the leaf chain cannot be maintained,
// because shadowing a leaf would leave its left sibling's next pointer
// stale inside an already-committed (immutable) page. Copy-on-write
// trees therefore keep every nextLeaf pointer invalid and scans
// descend from the root instead of walking the chain.

package btree

import (
	"bytes"
	"errors"
	"fmt"

	"famedb/internal/storage"
	"famedb/internal/trace"
)

// EnableCopyOnWrite switches the tree to copy-on-write mutations. It
// must be called before the first mutation and stays on for the
// tree's lifetime; the composer records the choice in the layout file
// so a tree is copy-on-write from birth or never.
func (t *Tree) EnableCopyOnWrite() { t.cow = true }

// CopyOnWrite reports whether copy-on-write mutations are enabled.
func (t *Tree) CopyOnWrite() bool { return t.cow }

// Root returns the current root page — the root the next installed
// version will publish.
func (t *Tree) Root() storage.PageID { return t.root }

// TakeSuperseded returns the pages replaced by shadowing since the
// last call and resets the set. The version table attaches them to the
// version they belonged to and frees them when that version's last pin
// releases.
func (t *Tree) TakeSuperseded() []storage.PageID {
	s := t.superseded
	t.superseded = nil
	return s
}

// shadow clones n into a freshly allocated page when copy-on-write is
// enabled and records the replaced page in the superseded set; without
// copy-on-write it returns n unchanged. Shadowed leaves drop their
// next-leaf link (see the package comment on chains).
func (t *Tree) shadow(n node) (node, error) {
	if !t.cow {
		return n, nil
	}
	id, err := t.pager.Alloc()
	if err != nil {
		return n, err
	}
	t.superseded = append(t.superseded, n.id)
	n.id = id
	if n.isLeaf() {
		n.setNextLeaf(storage.InvalidPage)
	}
	return n, nil
}

// getFrom reads key in the tree rooted at root — the read half of a
// pinned snapshot. It takes no locks: in copy-on-write mode every page
// reachable from a committed root is immutable while pinned.
func (t *Tree) getFrom(root storage.PageID, key []byte) ([]byte, bool, error) {
	n, err := t.descendFrom(nil, root, key)
	if err != nil {
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

// errScanStop threads early termination (fn returned false or the to
// bound was passed) out of the recursive descent.
var errScanStop = errors.New("btree: scan stop")

// scanFrom calls fn for each entry with from <= key < to in the tree
// rooted at root, in key order, by descending from the root (the leaf
// chain does not exist in copy-on-write mode). Semantics match Scan.
func (t *Tree) scanFrom(sp *trace.Span, root storage.PageID, from, to []byte, fn func(key, value []byte) bool) error {
	err := t.scanSubtree(sp, root, from, to, fn)
	if errors.Is(err, errScanStop) {
		return nil
	}
	return err
}

func (t *Tree) scanSubtree(sp *trace.Span, id storage.PageID, from, to []byte, fn func(key, value []byte) bool) error {
	n, err := t.readNode(sp, id)
	if err != nil {
		return err
	}
	// The node is only read within this frame (child recursion reads its
	// own pages), so the buffer recycles on every way out.
	defer t.release(n)
	if n.isLeaf() {
		first := 0
		if from != nil {
			first, _ = n.search(from)
		}
		for i := first; i < n.numKeys(); i++ {
			k := n.key(i)
			if to != nil && bytes.Compare(k, to) >= 0 {
				return errScanStop
			}
			if !fn(k, n.leafValue(i)) {
				return errScanStop
			}
		}
		return nil
	}
	// The leftmost child covers keys < key[0]; cell i covers
	// [key[i], key[i+1]). Start at the child covering from and stop
	// once a child's lower bound reaches to.
	start := -1
	if from != nil {
		start = n.childIndexFor(from)
	}
	for ci := start; ci < n.numKeys(); ci++ {
		if to != nil && ci >= 0 && bytes.Compare(n.key(ci), to) >= 0 {
			return errScanStop
		}
		child := n.leftChild()
		if ci >= 0 {
			child = n.childAt(ci)
		}
		if child == storage.InvalidPage {
			return fmt.Errorf("btree: nil child in page %d: %w", n.id, ErrCorrupt)
		}
		if err := t.scanSubtree(sp, child, from, to, fn); err != nil {
			return err
		}
	}
	return nil
}
