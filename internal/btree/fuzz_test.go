package btree

import "testing"

// FuzzNodeValidate feeds arbitrary bytes as a 4 KiB node page: validate
// either refuses the page, or every cell it accepted is readable —
// key for every node, leafValue on a leaf, childAt on an inner node.
func FuzzNodeValidate(f *testing.F) {
	const pageSize = 4096
	leaf := initNode(make([]byte, pageSize), leafType)
	leaf.insertLeafCell(0, []byte("alpha"), []byte("one"))
	leaf.insertLeafCell(1, []byte("beta"), []byte("two"))
	f.Add(append([]byte(nil), leaf.buf...))
	inner := initNode(make([]byte, pageSize), innerType)
	inner.setLeftChild(3)
	inner.insertInnerCell(0, []byte("m"), 4)
	f.Add(append([]byte(nil), inner.buf...))
	// testdata/fuzz/FuzzNodeValidate holds the pages that once slipped
	// past validate: a cell offset beyond the page, and a key length of
	// 2^64-1 that wrapped to -1 as an int.

	f.Fuzz(func(t *testing.T, data []byte) {
		page := make([]byte, pageSize)
		copy(page, data)
		n := node{buf: page}
		if n.validate(pageSize) != nil {
			return
		}
		for i := 0; i < n.numKeys(); i++ {
			_ = n.key(i)
			if n.isLeaf() {
				_ = n.leafValue(i)
			} else {
				_ = n.childAt(i)
			}
		}
	})
}
