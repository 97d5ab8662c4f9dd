package server

// Native fuzz targets for the wire decoders: every byte a TCP peer
// sends reaches one of them. Each target checks that decoding never
// panics and that whatever decodes re-encodes to the same value. The
// seed corpora live in testdata/fuzz/<target>/ (among them a batch
// claiming 1<<20 ops in 8 bytes, and a frame header claiming MaxFrame
// bytes that never arrive); run one target with
//
//	go test -run '^$' -fuzz FuzzDecodeBatch -fuzztime 5s ./internal/server

import (
	"bytes"
	"testing"
)

func FuzzDecodeBatch(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte) {
		ops, err := decodeBatch(payload)
		if err != nil {
			return
		}
		if len(ops) > len(payload)/2 {
			t.Fatalf("%d ops from a %d-byte payload", len(ops), len(payload))
		}
		again, err := decodeBatch(encodeBatch(ops))
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if len(ops) != len(again) {
			t.Fatalf("round trip: %d ops, then %d", len(ops), len(again))
		}
		for i := range ops {
			a, b := ops[i], again[i]
			if a.Remove != b.Remove || !bytes.Equal(a.Key, b.Key) || !bytes.Equal(a.Value, b.Value) {
				t.Fatalf("op %d: %+v, then %+v", i, a, b)
			}
		}
	})
}

func FuzzDecodeKV(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte) {
		k, v, err := decodeKV(payload)
		if err != nil {
			return
		}
		k2, v2, err := decodeKV(encodeKV(k, v))
		if err != nil || !bytes.Equal(k, k2) || !bytes.Equal(v, v2) {
			t.Fatalf("round trip: (%q, %q), then (%q, %q), %v", k, v, k2, v2, err)
		}
	})
}

func FuzzDecodeHello(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte) {
		h, err := decodeHello(payload)
		if err != nil {
			return
		}
		h2, err := decodeHello(encodeHello(h))
		if err != nil || h != h2 {
			t.Fatalf("round trip: %+v, then %+v, %v", h, h2, err)
		}
	})
}

func FuzzDecodeFrameMsg(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte) {
		m, err := decodeFrameMsg(payload)
		if err != nil {
			return
		}
		m2, err := decodeFrameMsg(encodeFrameMsg(m))
		if err != nil || m.Seq != m2.Seq || m.Base != m2.Base || !bytes.Equal(m.Bytes, m2.Bytes) {
			t.Fatalf("round trip: %+v, then %+v, %v", m, m2, err)
		}
	})
}

func FuzzReadFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, stream []byte) {
		typ, payload, err := readFrame(bytes.NewReader(stream))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := writeFrame(&out, typ, payload); err != nil {
			t.Fatal(err)
		}
		typ2, payload2, err := readFrame(&out)
		if err != nil || typ != typ2 || !bytes.Equal(payload, payload2) {
			t.Fatalf("round trip: (%d, %d bytes), then (%d, %d bytes), %v", typ, len(payload), typ2, len(payload2), err)
		}
	})
}
