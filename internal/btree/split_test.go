package btree

import (
	"fmt"
	"testing"

	"famedb/internal/storage"
)

// nodeFill is what the split tests read of one node: its kind, its key
// count and the share of the page its header, offsets and live cells
// take.
type nodeFill struct {
	leaf bool
	keys int
	fill float64
}

// shape walks the tree in key order and returns its height and every
// node's fill, leaves in key order.
func shape(t *testing.T, tr *Tree) (height int, leaves, inner []nodeFill) {
	t.Helper()
	var walk func(id storage.PageID, depth int)
	walk = func(id storage.PageID, depth int) {
		n, err := tr.readNode(nil, id)
		if err != nil {
			t.Fatal(err)
		}
		defer tr.release(n)
		used := len(n.buf) - n.freeBytes() - n.garbageBytes()
		f := nodeFill{leaf: n.isLeaf(), keys: n.numKeys(), fill: float64(used) / float64(len(n.buf))}
		if f.leaf {
			height = max(height, depth)
			leaves = append(leaves, f)
			return
		}
		inner = append(inner, f)
		walk(n.leftChild(), depth+1)
		for i := 0; i < n.numKeys(); i++ {
			walk(n.childAt(i), depth+1)
		}
	}
	walk(tr.root, 1)
	return height, leaves, inner
}

// underFilled counts the leaves below min fill.
func underFilled(leaves []nodeFill, min float64) int {
	n := 0
	for _, l := range leaves {
		if l.fill < min {
			n++
		}
	}
	return n
}

// TestAscendingInsertsPackLeaves: a key-ordered stream only ever adds at
// the end of the last leaf, so every leaf it leaves behind is nine
// tenths full, not half. 20,000 entries then fit two levels; half-full
// leaves would need more children than one root page holds. The
// copy-on-write tree runs the same split code and packs the same way.
func TestAscendingInsertsPackLeaves(t *testing.T) {
	for _, cow := range []bool{false, true} {
		t.Run(fmt.Sprintf("cow=%v", cow), func(t *testing.T) {
			tr := newTree(t, 4096)
			var vt *VersionTable
			if cow {
				vt = NewVersionTable(tr)
			}
			for i := 0; i < 20000; i++ {
				mustInsert(t, tr, fmt.Sprintf("key-%08d", i), "value-0123456789")
				if vt != nil && i%1000 == 999 {
					install(t, vt)
				}
			}
			if err := tr.Verify(); err != nil {
				t.Fatal(err)
			}
			height, leaves, _ := shape(t, tr)
			if height != 2 {
				t.Errorf("height %d over %d leaves, want 2", height, len(leaves))
			}
			if n := underFilled(leaves[:len(leaves)-1], 0.85); n > 0 {
				t.Errorf("%d of %d leaves under 85%% full, want none but the last", n, len(leaves))
			}
		})
	}
}

// TestInterleavedAscendingStreamsPack: two clients each append their own
// ascending keys. Each stream's inserts land after the last cell of a
// leaf that is not the tree's rightmost, so the rule packs both.
func TestInterleavedAscendingStreamsPack(t *testing.T) {
	tr := newTree(t, 4096)
	for i := 0; i < 10000; i++ {
		for _, client := range []string{"a", "b"} {
			mustInsert(t, tr, fmt.Sprintf("%s/%08d", client, i), "value-0123456789")
		}
	}
	if err := tr.Verify(); err != nil {
		t.Fatal(err)
	}
	_, leaves, _ := shape(t, tr)
	// The last leaf of each stream may be partly full.
	if n := underFilled(leaves, 0.85); n > 2 {
		t.Errorf("%d of %d leaves under 85%% full, want at most one per stream", n, len(leaves))
	}
}

// fullLeaf returns a one-leaf tree filled, in descending order, with
// the even keys from the top down until one more cell would not fit.
func fullLeaf(t *testing.T) *Tree {
	t.Helper()
	tr := newTree(t, 4096)
	for i := 998; i > 0; i -= 2 {
		k := []byte(fmt.Sprintf("key-%04d", i))
		n, err := tr.readNode(nil, tr.root)
		if err != nil {
			t.Fatal(err)
		}
		room := n.freeBytes() >= leafCellSize(k, []byte("value"))+offsetSize
		tr.release(n)
		if !room {
			return tr
		}
		mustInsert(t, tr, string(k), "value")
	}
	t.Fatal("leaf never filled")
	return nil
}

// TestSplitPointByInsertPosition: the same full leaf splits balanced
// when the new key lands among its cells, and nine to one when it lands
// after the last.
func TestSplitPointByInsertPosition(t *testing.T) {
	for _, tc := range []struct {
		name       string
		key        string
		minL, maxL float64 // the left leaf's share of both leaves' bytes
	}{
		{"middle", "key-0901", 0.45, 0.55},
		{"end", "key-9999", 0.88, 0.97},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := fullLeaf(t)
			mustInsert(t, tr, tc.key, "value")
			if err := tr.Verify(); err != nil {
				t.Fatal(err)
			}
			height, leaves, _ := shape(t, tr)
			if height != 2 || len(leaves) != 2 {
				t.Fatalf("height %d with %d leaves after one split", height, len(leaves))
			}
			share := leaves[0].fill / (leaves[0].fill + leaves[1].fill)
			if share < tc.minL || share > tc.maxL {
				t.Errorf("left leaf holds %.2f of the bytes, want %.2f..%.2f", share, tc.minL, tc.maxL)
			}
		})
	}
}

// TestDescendingInsertsStayBalanced: inserts below every key never land
// at a node's end, so every split stays balanced and the leaves end up
// about half full, as before.
func TestDescendingInsertsStayBalanced(t *testing.T) {
	tr := newTree(t, 4096)
	for i := 20000; i > 0; i-- {
		mustInsert(t, tr, fmt.Sprintf("key-%08d", i), "value-0123456789")
	}
	if err := tr.Verify(); err != nil {
		t.Fatal(err)
	}
	_, leaves, _ := shape(t, tr)
	for i, l := range leaves[1:] {
		if l.fill > 0.6 {
			t.Fatalf("leaf %d of %d is %.0f%% full after descending inserts, want about half", i+1, len(leaves), 100*l.fill)
		}
	}
}

// TestInnerAppendSplitKeepsRightKey: with separators near the largest
// size, an inner node holds only four of them, and nine tenths of its
// bytes would move all four to the left and leave the new right node no
// key at all. The append split stops one entry short, so after every
// insert every inner node holds at least one key.
func TestInnerAppendSplitKeepsRightKey(t *testing.T) {
	for _, cow := range []bool{false, true} {
		t.Run(fmt.Sprintf("cow=%v", cow), func(t *testing.T) {
			tr := newTree(t, 256)
			if cow {
				NewVersionTable(tr)
			}
			pad := string(make([]byte, 40))
			for i := 0; i < 400; i++ {
				mustInsert(t, tr, fmt.Sprintf("%04d%s", i, pad), "v")
				_, _, inner := shape(t, tr)
				for j, n := range inner {
					if n.keys == 0 {
						t.Fatalf("after insert %d: inner node %d of %d has no key", i, j, len(inner))
					}
				}
			}
			if err := tr.Verify(); err != nil {
				t.Fatal(err)
			}
			if height, _, _ := shape(t, tr); height < 4 {
				t.Fatalf("height %d: the test needs splits of inner nodes", height)
			}
		})
	}
}
