package txn

// A replica decodes every chunk its primary ships with decodeChunk, so
// the bytes it sees come from the network. The seed corpus lives in
// testdata/fuzz/FuzzDecodeChunk/ (among it a frame header claiming
// more than maxFrame bytes and a chunk torn inside its second frame);
// run the target with
//
//	go test -run '^$' -fuzz FuzzDecodeChunk -fuzztime 5s ./internal/txn
//
// Recovery reads whatever a crash left in the log. FuzzRecoverLog's
// seeds live in testdata/fuzz/FuzzRecoverLog/ (a pristine log, a torn
// tail, garbage after the last commit, a frame length past maxFrame and
// a flipped byte inside a middle frame); run it with
//
//	go test -run '^$' -fuzz FuzzRecoverLog -fuzztime 60s ./internal/txn

import (
	"bytes"
	"fmt"
	"testing"

	"famedb/internal/access"
	"famedb/internal/index"
	"famedb/internal/osal"
	"famedb/internal/storage"
)

// FuzzDecodeChunk checks that decodeChunk never panics, that whatever
// it accepts re-encodes to the same records, that a chunk encodeFrame
// builds from a put and its commit decodes back to both records, and
// that every cut inside that chunk is refused.
func FuzzDecodeChunk(f *testing.F) {
	f.Fuzz(func(t *testing.T, chunk []byte, typ byte, txnID uint64, key, value []byte) {
		if recs, err := decodeChunk(chunk); err == nil {
			back, err := decodeChunk(encodeChunk(recs))
			if err != nil || !sameRecords(recs, back) {
				t.Fatalf("round trip: %v, then %v, %v", recs, back, err)
			}
		}
		if len(key)+len(value) > maxFrame/2 {
			return // one frame could not hold it
		}
		want := []logRecord{{typ: typ, txnID: txnID, key: key, value: value}, {typ: recCommit, txnID: txnID}}
		built := encodeChunk(want)
		got, err := decodeChunk(built)
		if err != nil || !sameRecords(want, got) {
			t.Fatalf("decode of built chunk: %v, want %v, %v", got, want, err)
		}
		first := len(encodeFrame(nil, want[0]))
		for _, cut := range []int{1, first - 1, first + 1, len(built) - 1} {
			if _, err := decodeChunk(built[:cut]); err == nil && cut != first {
				t.Fatalf("chunk cut at %d of %d bytes decoded", cut, len(built))
			}
		}
	})
}

func encodeChunk(recs []logRecord) []byte {
	var buf []byte
	for _, r := range recs {
		buf = encodeFrame(buf, r)
	}
	return buf
}

func sameRecords(a, b []logRecord) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].typ != b[i].typ || a[i].txnID != b[i].txnID ||
			!bytes.Equal(a[i].key, b[i].key) || !bytes.Equal(a[i].value, b[i].value) {
			return false
		}
	}
	return true
}

// recoverLogName is the log file FuzzRecoverLog writes and recovers.
const recoverLogName = "wal.log"

// recoverTxn is one committed transaction of FuzzRecoverLog's log: its
// puts, and the log offset where its commit frame ends.
type recoverTxn struct {
	keys, values [][]byte
	end          int
}

// freshBTreeStore is an empty B+-tree record store on a fresh page file.
func freshBTreeStore(tb testing.TB) *access.Store {
	tb.Helper()
	f, err := osal.NewMemFS().Create("data.db")
	if err != nil {
		tb.Fatal(err)
	}
	pf, err := storage.CreatePageFile(f, 512)
	if err != nil {
		tb.Fatal(err)
	}
	idx, _, err := index.CreateBTree(pf, index.AllBTreeOps())
	if err != nil {
		tb.Fatal(err)
	}
	return access.New(idx, access.AllOps())
}

// buildRecoverLog commits eight transactions of one to three puts each
// and returns the log's bytes.
func buildRecoverLog(tb testing.TB) ([]byte, []recoverTxn) {
	tb.Helper()
	fs := osal.NewMemFS()
	m, err := Open(fs, recoverLogName, freshBTreeStore(tb), Options{Recovery: true})
	if err != nil {
		tb.Fatal(err)
	}
	var txns []recoverTxn
	for i := 0; i < 8; i++ {
		tx := m.Begin()
		var rt recoverTxn
		for j := 0; j <= i%3; j++ {
			key := []byte(fmt.Sprintf("t%d-k%d", i, j))
			value := bytes.Repeat([]byte{byte('a' + i)}, 1+(i*j*37)%100)
			if err := tx.Put(key, value); err != nil {
				tb.Fatal(err)
			}
			rt.keys, rt.values = append(rt.keys, key), append(rt.values, value)
		}
		if err := tx.Commit(); err != nil {
			tb.Fatal(err)
		}
		rt.end = int(m.WALEnd())
		txns = append(txns, rt)
	}
	if err := m.Close(); err != nil {
		tb.Fatal(err)
	}
	f, err := fs.Open(recoverLogName)
	if err != nil {
		tb.Fatal(err)
	}
	log := make([]byte, txns[len(txns)-1].end)
	if _, err := f.ReadAt(log, 0); err != nil {
		tb.Fatal(err)
	}
	return log, txns
}

// FuzzRecoverLog damages a valid log of committed transactions and
// recovers it over a fresh store. The fuzzer's bytes either replace the
// log from offset at on (cut: a torn tail followed by garbage, or plain
// garbage after the last commit when at is the log's length) or
// overwrite the log from at on, keeping whatever follows them.
// Recovery must never panic. It may return an error; if it does not,
// every transaction whose commit frame ends at or before the first
// damaged byte holds exactly its values, and the tree verifies clean.
// A transaction committed after the recovery must then survive a
// second recovery beside them: the first one left the log's end where
// the next append belongs.
func FuzzRecoverLog(f *testing.F) {
	log, txns := buildRecoverLog(f)
	after := recoverTxn{keys: [][]byte{[]byte("after")}, values: [][]byte{[]byte("recovery")}}
	f.Fuzz(func(t *testing.T, tail []byte, at uint32, cut bool) {
		pos := int(at % uint32(len(log)+1))
		var damaged []byte
		if cut {
			damaged = append(append([]byte(nil), log[:pos]...), tail...)
		} else {
			damaged = append([]byte(nil), log...)
			for i, b := range tail {
				if pos+i < len(damaged) {
					damaged[pos+i] = b
				} else {
					damaged = append(damaged, b)
				}
			}
		}
		first := 0 // the first damaged byte
		for first < len(log) && first < len(damaged) && log[first] == damaged[first] {
			first++
		}
		var kept []recoverTxn
		for _, rt := range txns {
			if rt.end <= first {
				kept = append(kept, rt)
			}
		}
		check := func(store *access.Store, want []recoverTxn) {
			t.Helper()
			for _, rt := range want {
				for i, key := range rt.keys {
					v, found, err := store.Index().Get(key)
					if err != nil || !found || !bytes.Equal(v, rt.values[i]) {
						t.Fatalf("damage at %d: %q = %d bytes, found %v, %v; want the %d bytes committed",
							first, key, len(v), found, err, len(rt.values[i]))
					}
				}
			}
			if err := store.Index().(*index.BTree).Tree().Verify(); err != nil {
				t.Fatalf("damage at %d: recovered tree: %v", first, err)
			}
		}

		fs := osal.NewMemFS()
		wf, err := fs.Create(recoverLogName)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := wf.WriteAt(damaged, 0); err != nil {
			t.Fatal(err)
		}
		store := freshBTreeStore(t)
		m, err := Open(fs, recoverLogName, store, Options{Recovery: true})
		if err != nil {
			return
		}
		check(store, kept)
		tx := m.Begin()
		if err := tx.Put(after.keys[0], after.values[0]); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		store = freshBTreeStore(t)
		m, err = Open(fs, recoverLogName, store, Options{Recovery: true})
		if err != nil {
			t.Fatalf("damage at %d: reopen after a commit: %v", first, err)
		}
		defer m.Close()
		check(store, append(kept, after))
	})
}
