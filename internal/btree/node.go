// Package btree implements the BPlusTree feature of FAME-DBMS: a paged
// B+-tree with variable-length keys and values over a storage.Pager.
//
// Following the paper's fine-grained decomposition of the index (Fig. 2
// shows search, update and remove as separate subfeatures of the
// B+-tree), the mutating operations are independent entry points that
// the composer wires individually; a product without BTreeRemove simply
// never links Delete.
package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"famedb/internal/storage"
)

// Node page layout:
//
//	[0]     node type (leafType or innerType)
//	[1]     unused flags
//	[2:4]   key count (uint16)
//	[4:6]   cell area start (uint16)
//	[6:10]  leaf: next-leaf page; inner: unused
//	[10:14] inner: leftmost child page; leaf: unused
//	[14:16] reserved
//
// After the header comes the offset array (2 bytes per key, sorted by
// key); cells grow from the page end downward.
//
// Leaf cell:  klen uvarint | vlen uvarint | key | value
// Inner cell: klen uvarint | child uint32 | key
//
// Inner-node semantics: the leftmost child holds keys < key[0]; the
// child in cell i holds keys in [key[i], key[i+1]).
const (
	leafType  = 0x21
	innerType = 0x22

	nodeHeaderSize = 16
	offsetSize     = 2
)

var (
	// ErrKeyTooLarge is returned when a key/value pair cannot ever fit.
	ErrKeyTooLarge = errors.New("btree: entry exceeds maximum size for page")
	// ErrCorrupt indicates an invariant violation found in stored data.
	ErrCorrupt = errors.New("btree: corrupt node")
)

// node wraps a page buffer with B+-tree node accessors.
type node struct {
	buf []byte
	id  storage.PageID
	// pooled is the tree's pool handle for buf (nil when the pool does
	// not own it); Tree.release hands it back.
	pooled *[]byte
}

func initNode(buf []byte, typ byte) node {
	for i := range buf {
		buf[i] = 0
	}
	buf[0] = typ
	binary.LittleEndian.PutUint16(buf[4:6], uint16(len(buf)))
	return node{buf: buf}
}

func (n node) isLeaf() bool { return n.buf[0] == leafType }

func (n node) numKeys() int { return int(binary.LittleEndian.Uint16(n.buf[2:4])) }

func (n node) setNumKeys(c int) { binary.LittleEndian.PutUint16(n.buf[2:4], uint16(c)) }

func (n node) cellStart() int { return int(binary.LittleEndian.Uint16(n.buf[4:6])) }

func (n node) setCellStart(off int) { binary.LittleEndian.PutUint16(n.buf[4:6], uint16(off)) }

func (n node) nextLeaf() storage.PageID {
	return storage.PageID(binary.LittleEndian.Uint32(n.buf[6:10]))
}

func (n node) setNextLeaf(id storage.PageID) {
	binary.LittleEndian.PutUint32(n.buf[6:10], uint32(id))
}

func (n node) leftChild() storage.PageID {
	return storage.PageID(binary.LittleEndian.Uint32(n.buf[10:14]))
}

func (n node) setLeftChild(id storage.PageID) {
	binary.LittleEndian.PutUint32(n.buf[10:14], uint32(id))
}

func (n node) offset(i int) int {
	base := nodeHeaderSize + i*offsetSize
	return int(binary.LittleEndian.Uint16(n.buf[base : base+2]))
}

func (n node) setOffset(i, off int) {
	base := nodeHeaderSize + i*offsetSize
	binary.LittleEndian.PutUint16(n.buf[base:base+2], uint16(off))
}

// key returns the i-th key (aliasing the buffer).
func (n node) key(i int) []byte {
	off := n.offset(i)
	klen, sz := binary.Uvarint(n.buf[off:])
	off += sz
	if n.isLeaf() {
		_, sz2 := binary.Uvarint(n.buf[off:])
		off += sz2
	} else {
		off += 4
	}
	return n.buf[off : off+int(klen)]
}

// leafValue returns the i-th value of a leaf (aliasing the buffer).
func (n node) leafValue(i int) []byte {
	off := n.offset(i)
	klen, sz := binary.Uvarint(n.buf[off:])
	off += sz
	vlen, sz2 := binary.Uvarint(n.buf[off:])
	off += sz2 + int(klen)
	return n.buf[off : off+int(vlen)]
}

// childAt returns the child pointer of inner cell i.
func (n node) childAt(i int) storage.PageID {
	off := n.offset(i)
	_, sz := binary.Uvarint(n.buf[off:])
	return storage.PageID(binary.LittleEndian.Uint32(n.buf[off+sz : off+sz+4]))
}

// setChildAt overwrites the child pointer of inner cell i.
func (n node) setChildAt(i int, id storage.PageID) {
	off := n.offset(i)
	_, sz := binary.Uvarint(n.buf[off:])
	binary.LittleEndian.PutUint32(n.buf[off+sz:off+sz+4], uint32(id))
}

// cellSize returns the byte size of cell i.
func (n node) cellSize(i int) int {
	off := n.offset(i)
	klen, sz := binary.Uvarint(n.buf[off:])
	if n.isLeaf() {
		vlen, sz2 := binary.Uvarint(n.buf[off+sz:])
		return sz + sz2 + int(klen) + int(vlen)
	}
	return sz + 4 + int(klen)
}

// freeBytes returns space available for one more cell + offset.
func (n node) freeBytes() int {
	return n.cellStart() - (nodeHeaderSize + n.numKeys()*offsetSize)
}

// search returns the index of key in the node and whether it was found;
// when not found, the index is the insertion position.
func (n node) search(key []byte) (int, bool) {
	lo, hi := 0, n.numKeys()
	for lo < hi {
		mid := (lo + hi) / 2
		switch bytes.Compare(n.key(mid), key) {
		case 0:
			return mid, true
		case -1:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return lo, false
}

// childIndexFor returns which child to descend into for key: -1 means
// the leftmost child, otherwise the cell index.
func (n node) childIndexFor(key []byte) int {
	idx, found := n.search(key)
	if found {
		return idx
	}
	return idx - 1 // cell idx-1 covers [key[idx-1], key[idx]); -1 = leftmost
}

// childFor resolves childIndexFor to a page ID.
func (n node) childFor(key []byte) storage.PageID {
	i := n.childIndexFor(key)
	if i < 0 {
		return n.leftChild()
	}
	return n.childAt(i)
}

// leafCellSize computes the stored size of a leaf entry.
func leafCellSize(key, value []byte) int {
	return uvarintLen(uint64(len(key))) + uvarintLen(uint64(len(value))) +
		len(key) + len(value)
}

// innerCellSize computes the stored size of an inner entry.
func innerCellSize(key []byte) int {
	return uvarintLen(uint64(len(key))) + 4 + len(key)
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// insertLeafCell inserts (key, value) at index i, assuming space was
// checked. Existing offsets shift right.
func (n node) insertLeafCell(i int, key, value []byte) {
	size := leafCellSize(key, value)
	off := n.cellStart() - size
	w := off
	w += binary.PutUvarint(n.buf[w:], uint64(len(key)))
	w += binary.PutUvarint(n.buf[w:], uint64(len(value)))
	w += copy(n.buf[w:], key)
	copy(n.buf[w:], value)
	n.setCellStart(off)
	n.shiftOffsets(i, 1)
	n.setOffset(i, off)
	n.setNumKeys(n.numKeys() + 1)
}

// insertInnerCell inserts (key, child) at index i.
func (n node) insertInnerCell(i int, key []byte, child storage.PageID) {
	size := innerCellSize(key)
	off := n.cellStart() - size
	w := off
	w += binary.PutUvarint(n.buf[w:], uint64(len(key)))
	binary.LittleEndian.PutUint32(n.buf[w:w+4], uint32(child))
	w += 4
	copy(n.buf[w:], key)
	n.setCellStart(off)
	n.shiftOffsets(i, 1)
	n.setOffset(i, off)
	n.setNumKeys(n.numKeys() + 1)
}

// removeCell deletes cell i (the cell bytes become garbage until
// compaction).
func (n node) removeCell(i int) {
	n.shiftOffsets(i+1, -1)
	n.setNumKeys(n.numKeys() - 1)
}

// shiftOffsets moves offsets [from, numKeys) by delta positions.
func (n node) shiftOffsets(from, delta int) {
	count := n.numKeys()
	if delta > 0 {
		for i := count - 1; i >= from; i-- {
			n.setOffset(i+delta, n.offset(i))
		}
	} else {
		for i := from; i < count; i++ {
			n.setOffset(i+delta, n.offset(i))
		}
	}
}

// compact rewrites the cell area dropping the garbage removeCell leaves
// behind, packing the live cells against the page end in key order.
// The cells are staged in scratch (a page-sized buffer), so compaction
// allocates nothing.
func (n node) compact(scratch []byte) {
	write := len(n.buf)
	for i := 0; i < n.numKeys(); i++ {
		off, size := n.offset(i), n.cellSize(i)
		write -= size
		copy(scratch[write:], n.buf[off:off+size])
		n.setOffset(i, write)
	}
	copy(n.buf[write:], scratch[write:])
	n.setCellStart(write)
}

// garbageBytes returns the bytes of the cell area that no live cell
// uses: the cell area spans [cellStart, page end), the live cells cover
// the rest.
func (n node) garbageBytes() int {
	live := 0
	for i := 0; i < n.numKeys(); i++ {
		live += n.cellSize(i)
	}
	return len(n.buf) - n.cellStart() - live
}

// validate performs structural checks used by Verify. It trusts no
// stored field: every cell's offset and lengths are checked against the
// page before the cell is decoded, so when it returns nil, key,
// leafValue (leaves) and childAt (inner nodes) are in bounds for every
// cell.
func (n node) validate(pageSize int) error {
	if n.buf[0] != leafType && n.buf[0] != innerType {
		return fmt.Errorf("%w: bad type 0x%02X", ErrCorrupt, n.buf[0])
	}
	if n.cellStart() > pageSize {
		return fmt.Errorf("%w: cell start %d beyond page", ErrCorrupt, n.cellStart())
	}
	cells := nodeHeaderSize + n.numKeys()*offsetSize
	if cells > pageSize {
		return fmt.Errorf("%w: %d keys overflow the offset array", ErrCorrupt, n.numKeys())
	}
	for i := 0; i < n.numKeys(); i++ {
		if !n.cellInPage(i, cells, pageSize) {
			return fmt.Errorf("%w: cell %d out of bounds", ErrCorrupt, i)
		}
		if i > 0 && bytes.Compare(n.key(i-1), n.key(i)) >= 0 {
			return fmt.Errorf("%w: keys %d and %d out of order", ErrCorrupt, i-1, i)
		}
	}
	return nil
}

// cellInPage reports whether cell i starts at or above lo and its
// header, key, value or child pointer all end within the page. A length
// larger than the page is refused before it is converted to int, where
// it could wrap negative.
func (n node) cellInPage(i, lo, pageSize int) bool {
	off := n.offset(i)
	if off < lo || off >= pageSize {
		return false
	}
	klen, sz := binary.Uvarint(n.buf[off:pageSize])
	if sz <= 0 || klen > uint64(pageSize) {
		return false
	}
	end := off + sz + int(klen)
	if n.isLeaf() {
		vlen, sz2 := binary.Uvarint(n.buf[off+sz : pageSize])
		if sz2 <= 0 || vlen > uint64(pageSize) {
			return false
		}
		end += sz2 + int(vlen)
	} else {
		end += 4
	}
	return end <= pageSize
}
