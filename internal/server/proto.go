// Package server is the Server feature of FAME-DBMS: a TCP front end
// over a composed product. One length-prefixed binary protocol carries
// two kinds of sessions on the same listener:
//
//   - client sessions pipeline Put/Get/Remove/Update/Batch commands;
//     writes stage straight into the existing transaction manager (and
//     so into the group-commit pipeline when composed);
//   - replication sessions (feature Replication) open with a Hello
//     carrying the replica's WAL offset and prefix CRC, then stream
//     shipped WAL frames, snapshot resyncs, and acks.
//
// Frame layout (both directions):
//
//	[4-byte big-endian length n][1-byte type][n-1 bytes payload]
//
// The length covers type+payload and is bounded by MaxFrame; anything
// larger (or a length of zero) is a protocol error and closes the
// connection. Keys and values inside payloads are uvarint-length-
// prefixed byte strings.
package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// MaxFrame bounds one protocol frame (type byte + payload). Snapshot
// WAL images ride in a single frame, so this is also the largest
// shippable log; 64 MiB is far past the embedded targets.
const MaxFrame = 64 << 20

// Frame types. Client commands and their responses sit below 32;
// replication messages at 32 and above.
const (
	cmdPut    = byte(1) // key value -> respOK | respErr
	cmdGet    = byte(2) // key -> respValue | respNotFound | respErr
	cmdRemove = byte(3) // key -> respOK | respNotFound | respErr
	cmdUpdate = byte(4) // key value -> respOK | respNotFound | respErr
	cmdBatch  = byte(5) // op list, one transaction -> respOK | respErr
	cmdPing   = byte(6) // -> respOK

	respOK       = byte(16)
	respValue    = byte(17) // value
	respNotFound = byte(18)
	respErr      = byte(19) // error text

	replHello     = byte(32) // uvarint offset, 4-byte crc, 1-byte forceSnap
	replFrames    = byte(33) // uvarint seq, uvarint base, raw WAL chunk
	replSnapBegin = byte(34) // (empty) snapshot resync starts
	replSnapKV    = byte(35) // key value (one dump entry)
	replSnapEnd   = byte(36) // raw WAL image
	replAck       = byte(37) // uvarint durable, uvarint applied replica WAL offset
	replSnapTree  = byte(38) // uvarint tree id: the replSnapKV entries after it dump that tree
)

// ErrProto is wrapped by every malformed-frame error.
var ErrProto = errors.New("server: protocol error")

// writeFrame writes one frame. The payload is not retained.
func writeFrame(w io.Writer, typ byte, payload []byte) error {
	n := 1 + len(payload)
	if n > MaxFrame {
		return fmt.Errorf("%w: frame of %d bytes exceeds max %d", ErrProto, n, MaxFrame)
	}
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(n))
	hdr[4] = typ
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) == 0 {
		return nil
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one frame, returning its type and payload. The
// payload is freshly allocated and owned by the caller. A payload above
// 64 KiB grows as its bytes arrive, at most doubling, so a bare header
// cannot make the reader commit MaxFrame bytes of memory.
func readFrame(r io.Reader) (byte, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n == 0 || n > MaxFrame {
		return 0, nil, fmt.Errorf("%w: frame length %d", ErrProto, n)
	}
	size := int(n - 1)
	payload := make([]byte, 0, min(size, 64<<10))
	for have := 0; have < size; have = len(payload) {
		payload = append(payload, make([]byte, min(size-have, max(have, 64<<10)))...)
		if _, err := io.ReadFull(r, payload[have:]); err != nil {
			return 0, nil, err
		}
	}
	return hdr[4], payload, nil
}

// appendBytes appends a uvarint-length-prefixed byte string.
func appendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// takeBytes consumes one uvarint-length-prefixed byte string.
func takeBytes(b []byte) (val, rest []byte, err error) {
	n, k := binary.Uvarint(b)
	if k <= 0 || uint64(len(b)-k) < n {
		return nil, nil, fmt.Errorf("%w: truncated byte string", ErrProto)
	}
	return b[k : k+int(n)], b[k+int(n):], nil
}

// takeUvarint consumes one uvarint.
func takeUvarint(b []byte) (uint64, []byte, error) {
	v, k := binary.Uvarint(b)
	if k <= 0 {
		return 0, nil, fmt.Errorf("%w: truncated uvarint", ErrProto)
	}
	return v, b[k:], nil
}

// Op is one operation of a cmdBatch payload.
type Op struct {
	Remove bool
	Key    []byte
	Value  []byte
}

// encodeBatch builds a cmdBatch payload.
func encodeBatch(ops []Op) []byte {
	b := binary.AppendUvarint(nil, uint64(len(ops)))
	for _, op := range ops {
		kind := byte(0)
		if op.Remove {
			kind = 1
		}
		b = append(b, kind)
		b = appendBytes(b, op.Key)
		if !op.Remove {
			b = appendBytes(b, op.Value)
		}
	}
	return b
}

// decodeBatch parses a cmdBatch payload. Every op takes at least two
// bytes (kind and key length), so a count the payload cannot hold is
// refused before anything is allocated for it.
func decodeBatch(b []byte) ([]Op, error) {
	count, b, err := takeUvarint(b)
	if err != nil {
		return nil, err
	}
	if count > 1<<20 || count > uint64(len(b)/2) {
		return nil, fmt.Errorf("%w: batch of %d ops", ErrProto, count)
	}
	ops := make([]Op, 0, count)
	for i := uint64(0); i < count; i++ {
		if len(b) == 0 {
			return nil, fmt.Errorf("%w: truncated batch", ErrProto)
		}
		kind := b[0]
		b = b[1:]
		var op Op
		op.Key, b, err = takeBytes(b)
		if err != nil {
			return nil, err
		}
		op.Key = append([]byte(nil), op.Key...)
		if kind == 0 {
			op.Value, b, err = takeBytes(b)
			if err != nil {
				return nil, err
			}
			op.Value = append([]byte(nil), op.Value...)
		} else {
			op.Remove = true
		}
		ops = append(ops, op)
	}
	return ops, nil
}

// hello is the replication handshake.
type hello struct {
	// Offset and CRC fingerprint the replica's WAL prefix [0, Offset).
	Offset int64
	CRC    uint32
	// ForceSnap requests a full snapshot regardless of the fingerprint
	// (set after an interrupted install or a detected gap).
	ForceSnap bool
}

func encodeHello(h hello) []byte {
	b := binary.AppendUvarint(nil, uint64(h.Offset))
	b = binary.BigEndian.AppendUint32(b, h.CRC)
	if h.ForceSnap {
		return append(b, 1)
	}
	return append(b, 0)
}

func decodeHello(b []byte) (hello, error) {
	var h hello
	off, b, err := takeUvarint(b)
	if err != nil {
		return h, err
	}
	if len(b) != 5 {
		return h, fmt.Errorf("%w: hello tail of %d bytes", ErrProto, len(b))
	}
	h.Offset = int64(off)
	h.CRC = binary.BigEndian.Uint32(b[:4])
	h.ForceSnap = b[4] != 0
	return h, nil
}

// frameMsg is one replFrames message: a shipped WAL chunk with the
// session's sequence number for gap detection.
type frameMsg struct {
	Seq   uint64
	Base  int64
	Bytes []byte
}

func encodeFrameMsg(f frameMsg) []byte {
	b := binary.AppendUvarint(nil, f.Seq)
	b = binary.AppendUvarint(b, uint64(f.Base))
	return append(b, f.Bytes...)
}

func decodeFrameMsg(b []byte) (frameMsg, error) {
	var f frameMsg
	var err error
	f.Seq, b, err = takeUvarint(b)
	if err != nil {
		return f, err
	}
	base, b, err := takeUvarint(b)
	if err != nil {
		return f, err
	}
	f.Base = int64(base)
	f.Bytes = b
	return f, nil
}

// encodeKV builds a key/value payload (cmdPut, cmdUpdate, replSnapKV).
func encodeKV(key, value []byte) []byte {
	return appendBytes(appendBytes(nil, key), value)
}

func decodeKV(b []byte) (key, value []byte, err error) {
	key, b, err = takeBytes(b)
	if err != nil {
		return nil, nil, err
	}
	value, b, err = takeBytes(b)
	if err != nil {
		return nil, nil, err
	}
	if len(b) != 0 {
		return nil, nil, fmt.Errorf("%w: %d trailing bytes", ErrProto, len(b))
	}
	return key, value, nil
}
