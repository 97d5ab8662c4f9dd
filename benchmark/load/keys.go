package load

import (
	"encoding/binary"
	"fmt"
)

// ValueLen is the size of every KV value: key hash, per-key sequence
// number, then filler derived from both, so a reader can tell whose
// value it got and how fresh it is.
const ValueLen = 100

func fnv64(x uint64) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= 1099511628211
		x >>= 8
	}
	return h
}

// Key is the YCSB-style key for a record id: "user" plus twelve digits
// of the id's FNV hash, so consecutive ids land far apart in the tree.
func Key(id uint64) []byte {
	return fmt.Appendf(nil, "user%012d", fnv64(id)%1e12)
}

// LogKey is the append-only key for the n-th record of one client:
// monotonically increasing per client, as a sensor log writes them.
func LogKey(client int, n uint64) []byte {
	return fmt.Appendf(nil, "log%02d-%012d", client, n)
}

// KeyHash identifies a key inside its value.
func KeyHash(key []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// Value builds the value for key at sequence seq into buf (reused when
// large enough).
func Value(buf, key []byte, seq uint64) []byte {
	if cap(buf) < ValueLen {
		buf = make([]byte, ValueLen)
	}
	buf = buf[:ValueLen]
	kh := KeyHash(key)
	binary.LittleEndian.PutUint64(buf[0:], kh)
	binary.LittleEndian.PutUint64(buf[8:], seq)
	fill := fnv64(kh ^ seq)
	for i := 16; i < ValueLen; i++ {
		buf[i] = byte(fill >> (uint(i) % 8 * 8))
	}
	return buf
}

// CheckValue verifies that v is a well-formed value for key and returns
// its sequence number.
func CheckValue(key, v []byte) (seq uint64, err error) {
	if len(v) != ValueLen {
		return 0, fmt.Errorf("value for %q has %d bytes, want %d", key, len(v), ValueLen)
	}
	kh := KeyHash(key)
	if got := binary.LittleEndian.Uint64(v[0:]); got != kh {
		return 0, fmt.Errorf("value for %q carries key hash %x, want %x", key, got, kh)
	}
	seq = binary.LittleEndian.Uint64(v[8:])
	fill := fnv64(kh ^ seq)
	for i := 16; i < ValueLen; i++ {
		if v[i] != byte(fill>>(uint(i)%8*8)) {
			return 0, fmt.Errorf("value for %q is damaged at byte %d", key, i)
		}
	}
	return seq, nil
}
