package txn

// A replica decodes every chunk its primary ships with decodeChunk, so
// the bytes it sees come from the network. The seed corpus lives in
// testdata/fuzz/FuzzDecodeChunk/ (among it a frame header claiming
// more than maxFrame bytes and a chunk torn inside its second frame);
// run the target with
//
//	go test -run '^$' -fuzz FuzzDecodeChunk -fuzztime 5s ./internal/txn

import (
	"bytes"
	"testing"
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
