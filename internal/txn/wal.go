// Package txn is the Transaction feature of FAME-DBMS (Fig. 2),
// decomposed per the paper into a small number of subfeatures: a
// write-ahead log, a commit protocol expressed as a batch limit
// (ForceCommit's limit is 1, so every commit syncs; GroupCommit's is
// larger and amortizes syncs over batches), optional redo Recovery, and
// Locking.
//
// The design is buffered-update / no-steal: a transaction's writes live
// in its private write set until commit, are then logged, made durable
// according to the commit protocol, and only afterwards applied to the
// store. Recovery therefore only needs redo: it re-applies the write
// sets of committed transactions, which is idempotent.
package txn

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"

	"famedb/internal/osal"
	"famedb/internal/stats"
	"famedb/internal/storage"
	"famedb/internal/trace"
)

// WAL record types. A write to tree 0, the manager's store, is a
// recPut or recRemove frame; a write to any other tree is a recTreePut
// or recTreeRemove frame, which carries the tree id after the
// transaction id.
const (
	recPut        = 1
	recRemove     = 2
	recCommit     = 3
	recTreePut    = 4
	recTreeRemove = 5
)

const walMagic = "FAMEWAL1"

// ErrLogCorrupt is returned when a log record fails its checksum; the
// recovery scan treats it as the end of the durable log (torn write).
var ErrLogCorrupt = errors.New("txn: corrupt log record")

// WAL is an append-only write-ahead log over an osal.File.
type WAL struct {
	f osal.File
	// mu guards the positional state below. Writers are never truly
	// concurrent (the group-commit leader is singular and maintenance
	// quiesces the pipeline first), but readers such as LogSyncs may
	// observe the log from other goroutines.
	mu  sync.Mutex
	end int64
	// syncedTo tracks durability for the commit protocols.
	syncedTo int64
	// syncs counts durable flushes, exposed via SyncCount for the
	// commit-protocol ablation.
	syncs int64
	// metrics mirrors log activity, retries included, into the
	// Statistics feature's registry when composed; nil otherwise
	// (recording is a no-op).
	metrics *stats.Registry
	// tracer records appends and syncs as spans when the Tracing
	// feature is composed; nil otherwise.
	tracer *trace.Tracer
	// commitsSince counts commit records appended since the last durable
	// sync: the commit body's sync decision reads it against the batch
	// limit, and the next Sync reports it as the group-commit batch size.
	commitsSince int
	// retry/health make the append and sync paths survive transient
	// device errors with the same bounded policy as the page path;
	// zero/nil values mean single attempts and no degraded latch.
	retry  storage.RetryPolicy
	health *storage.Health
	// onShip, when set, observes every successful append for the
	// Replication feature: base is the log offset the bytes landed at.
	// It runs once the bytes are written and before they are synced:
	// commitBatch syncs after appendEncoded returns, and under
	// GroupCommit a batch stays unsynced until the unsynced commits
	// reach the batch limit.
	// Appends are serial (see mu), so calls arrive in base order, and
	// bases chain contiguously until the log rewinds (truncateTo after a
	// failed batch, or reset after a checkpoint) — consumers detect a
	// rewind as a base that does not extend their last-seen end. The
	// buffer is only valid during the call; copy it to retain it.
	onShip func(base int64, buf []byte)
}

// logRecord is the in-memory form of a WAL record.
type logRecord struct {
	typ   byte
	txnID uint64
	// tree is the id of the tree a recTreePut or recTreeRemove writes;
	// every other record type writes tree 0 or no tree.
	tree  uint64
	key   []byte
	value []byte
}

// treeFrame reports whether frames of type typ carry a tree id.
func treeFrame(typ byte) bool { return typ == recTreePut || typ == recTreeRemove }

// write reports whether r is a write, the tree it writes and whether it
// removes.
func (r logRecord) write() (tree uint64, remove, ok bool) {
	switch r.typ {
	case recPut, recRemove:
		return 0, r.typ == recRemove, true
	case recTreePut, recTreeRemove:
		return r.tree, r.typ == recTreeRemove, true
	}
	return 0, false, false
}

// frameScratch pools encode buffers so committing does not allocate two
// slices per record.
var frameScratch = sync.Pool{
	New: func() any { b := make([]byte, 0, 1024); return &b },
}

// getScratch borrows a zero-length encode buffer from the pool.
func getScratch() *[]byte {
	b := frameScratch.Get().(*[]byte)
	*b = (*b)[:0]
	return b
}

// putScratch returns a borrowed buffer. Oversized buffers are dropped so
// one huge write set does not pin its memory forever.
func putScratch(b *[]byte) {
	if cap(*b) <= 1<<20 {
		frameScratch.Put(b)
	}
}

// encodeFrame appends the on-disk frame of r (4-byte length, 4-byte
// CRC32, payload) to dst in place and returns the extended slice.
func encodeFrame(dst []byte, r logRecord) []byte {
	base := len(dst)
	// Reserve the header, append the payload directly behind it, then
	// backfill length and checksum — no per-record temporaries.
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
	dst = append(dst, r.typ)
	dst = binary.AppendUvarint(dst, r.txnID)
	if treeFrame(r.typ) {
		dst = binary.AppendUvarint(dst, r.tree)
	}
	dst = binary.AppendUvarint(dst, uint64(len(r.key)))
	dst = append(dst, r.key...)
	dst = binary.AppendUvarint(dst, uint64(len(r.value)))
	dst = append(dst, r.value...)
	payload := dst[base+8:]
	binary.LittleEndian.PutUint32(dst[base:base+4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[base+4:base+8], crc32.ChecksumIEEE(payload))
	return dst
}

// openWAL opens or creates the log file and positions at the end of its
// valid prefix, so the next append overwrites any torn tail. fn sees
// every record of that prefix in log order.
func openWAL(fs osal.FS, name string, fn func(logRecord) error) (*WAL, error) {
	f, err := fs.Create(name)
	if err != nil {
		return nil, err
	}
	w := &WAL{f: f}
	size, err := f.Size()
	if err != nil {
		return nil, err
	}
	if size == 0 {
		if _, err := f.WriteAt([]byte(walMagic), 0); err != nil {
			return nil, err
		}
		w.end = int64(len(walMagic))
		return w, nil
	}
	hdr := make([]byte, len(walMagic))
	if _, err := f.ReadAt(hdr, 0); err != nil {
		return nil, fmt.Errorf("txn: read log header: %w", err)
	}
	if string(hdr) != walMagic {
		return nil, fmt.Errorf("txn: bad log magic %q", hdr)
	}
	if w.end, err = w.walk(size, fn); err != nil {
		return nil, err
	}
	w.syncedTo = w.end
	return w, nil
}

// appendEncoded writes an already-encoded run of frames (records record
// frames, commits of which are commit records) in ONE WriteAt. The end
// offset only advances on success, so a failed write leaves no hole:
// the torn tail is truncated away by the next recovery scan.
func (w *WAL) appendEncoded(parent *trace.Span, buf []byte, records, commits int) error {
	if len(buf) == 0 {
		return nil
	}
	w.mu.Lock()
	end := w.end
	w.mu.Unlock()
	sp := w.tracer.Start(parent, trace.LayerWAL, "append")
	if err := storage.Retry(w.retry, w.health, w.metrics, "wal-append", func() error {
		_, err := w.f.WriteAt(buf, end)
		return err
	}); err != nil {
		sp.Fail(err)
		sp.End()
		return err
	}
	sp.End()
	w.mu.Lock()
	w.end = end + int64(len(buf))
	w.commitsSince += commits
	ship := w.onShip
	w.mu.Unlock()
	for i := 0; i < records; i++ {
		w.metrics.Add(stats.TxnWalAppends, 1)
	}
	if ship != nil {
		ship(end, buf)
	}
	return nil
}

// readRecordAt decodes the frame at offset, returning its record and
// the next offset. A frame that would end past limit is corrupt: its
// length field is torn, so nothing is read or allocated for it.
func (w *WAL) readRecordAt(off, limit int64) (logRecord, int64, error) {
	var hdr [8]byte
	if _, err := w.f.ReadAt(hdr[:], off); err != nil {
		return logRecord{}, 0, err
	}
	length := binary.LittleEndian.Uint32(hdr[0:4])
	if length == 0 || length > maxFrame || off+8+int64(length) > limit {
		return logRecord{}, 0, ErrLogCorrupt
	}
	frame := make([]byte, 8+length)
	copy(frame, hdr[:])
	if n, err := w.f.ReadAt(frame[8:], off+8); n != int(length) {
		if err == nil || err == io.EOF {
			err = ErrLogCorrupt
		}
		return logRecord{}, 0, err
	}
	r, n, err := decodeFrame(frame)
	return r, off + int64(n), err
}

// walk is the one frame walker: it visits the log's frames in order from
// the start up to limit and returns where the valid prefix ends — at
// limit, or at the first torn or corrupt frame. fn sees each record;
// its error, or a device error other than a short read, stops the walk.
func (w *WAL) walk(limit int64, fn func(logRecord) error) (int64, error) {
	off := int64(len(walMagic))
	for off < limit {
		r, next, err := w.readRecordAt(off, limit)
		if errors.Is(err, ErrLogCorrupt) || err == io.EOF {
			break
		}
		if err == nil {
			err = fn(r)
		}
		if err != nil {
			return off, err
		}
		off = next
	}
	return off, nil
}

// maxFrame bounds a frame's payload; a longer length field is garbage.
const maxFrame = 1 << 24

// decodeFrame is the one frame decoder: it decodes the frame
// [len][crc][payload] at the start of b and returns its record and
// length, or ErrLogCorrupt unless b starts with a whole CRC-clean frame.
func decodeFrame(b []byte) (logRecord, int, error) {
	bad := func() (logRecord, int, error) { return logRecord{}, 0, ErrLogCorrupt }
	if len(b) < 8 {
		return bad()
	}
	length := binary.LittleEndian.Uint32(b[0:4])
	if length < 2 || length > maxFrame || uint64(len(b)-8) < uint64(length) {
		return bad()
	}
	p := b[8 : 8+length]
	if crc32.ChecksumIEEE(p) != binary.LittleEndian.Uint32(b[4:8]) {
		return bad()
	}
	r := logRecord{typ: p[0]}
	var n int
	if r.txnID, n = binary.Uvarint(p[1:]); n <= 0 {
		return bad()
	}
	p = p[1+n:]
	if treeFrame(r.typ) {
		if r.tree, n = binary.Uvarint(p); n <= 0 {
			return bad()
		}
		p = p[n:]
	}
	for _, field := range []*[]byte{&r.key, &r.value} {
		u, n := binary.Uvarint(p)
		if n <= 0 || uint64(len(p)-n) < u {
			return bad()
		}
		*field = append([]byte(nil), p[n:n+int(u)]...)
		p = p[n+int(u):]
	}
	return r, 8 + int(length), nil
}

// Sync makes all appended records durable.
func (w *WAL) Sync() error { return w.syncIn(nil) }

// syncIn is Sync recorded under the committing span.
func (w *WAL) syncIn(parent *trace.Span) error {
	w.mu.Lock()
	if w.syncedTo == w.end {
		w.mu.Unlock()
		return nil
	}
	end := w.end
	batch := w.commitsSince
	w.mu.Unlock()
	sp := w.tracer.Start(parent, trace.LayerWAL, "sync")
	if err := storage.Retry(w.retry, w.health, w.metrics, "wal-sync", func() error {
		return w.f.Sync()
	}); err != nil {
		sp.Fail(err)
		sp.End()
		return err
	}
	sp.End()
	w.mu.Lock()
	w.syncedTo = end
	w.syncs++
	w.commitsSince -= batch
	w.mu.Unlock()
	w.countSync(batch)
	return nil
}

// truncateTo discards the log tail past off after a failed batch write
// or sync, so a later recovery scan cannot replay transactions whose
// committers saw an error; commits is how many commit records the
// discarded tail held. The append cursor rolls back even when the file
// truncate itself fails (the device may still be refusing writes): the
// tail was never synced, so overwriting it is safe, and any leftover
// bytes past a shorter overwrite are cut off by the recovery scan's
// checksum.
func (w *WAL) truncateTo(off int64, commits int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if off >= w.end {
		return
	}
	_ = w.f.Truncate(off)
	w.end = off
	if w.syncedTo > off {
		w.syncedTo = off
	}
	if w.commitsSince -= commits; w.commitsSince < 0 {
		w.commitsSince = 0
	}
}

// reset truncates the log to empty (after a checkpoint).
func (w *WAL) reset() error {
	if err := w.f.Truncate(int64(len(walMagic))); err != nil {
		return err
	}
	w.mu.Lock()
	w.end = int64(len(walMagic))
	batch := w.commitsSince
	w.mu.Unlock()
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.mu.Lock()
	w.syncedTo = w.end
	w.syncs++
	w.commitsSince -= batch
	w.mu.Unlock()
	w.countSync(batch)
	return nil
}

// countSync records one durable log sync covering batch commits.
func (w *WAL) countSync(batch int) {
	w.metrics.Add(stats.TxnWalSyncs, 1)
	if batch > 0 {
		w.metrics.Observe(stats.TxnCommitBatch, int64(batch))
	}
}

// LogVerifyReport summarizes a WAL scrub: every frame of the valid
// prefix re-verified its CRC; TornBytes counts trailing bytes past the
// last valid frame (0 on a healthy log — corruption at rest or a torn
// append that was never truncated shows up here).
type LogVerifyReport struct {
	// Records is the number of valid frames.
	Records int
	// Commits is how many of them are commit records.
	Commits int
	// ValidBytes is the length of the verified prefix (incl. magic).
	ValidBytes int64
	// TornBytes counts bytes past the valid prefix.
	TornBytes int64
}

// Ok reports whether the log had no torn or corrupt tail.
func (r LogVerifyReport) Ok() bool { return r.TornBytes == 0 }

// String renders the report for logs and the shell.
func (r LogVerifyReport) String() string {
	if r.Ok() {
		return fmt.Sprintf("wal: %d records (%d commits), %d bytes ok", r.Records, r.Commits, r.ValidBytes)
	}
	return fmt.Sprintf("wal: %d records (%d commits), %d bytes ok, %d bytes TORN",
		r.Records, r.Commits, r.ValidBytes, r.TornBytes)
}

// verify re-walks the log from the start, checking every frame CRC.
func (w *WAL) verify() (LogVerifyReport, error) {
	end := w.offset()
	var rep LogVerifyReport
	valid, err := w.walk(end, func(r logRecord) error {
		rep.Records++
		if r.typ == recCommit {
			rep.Commits++
		}
		return nil
	})
	rep.ValidBytes, rep.TornBytes = valid, end-valid
	return rep, err
}

// SyncCount returns how many durable flushes the log has performed.
func (w *WAL) SyncCount() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.syncs
}

// offset returns the current append position.
func (w *WAL) offset() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.end
}

// unsyncedCommits returns how many commit records were appended since
// the last durable sync — the one counter the sync decision reads.
func (w *WAL) unsyncedCommits() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.commitsSince
}

func (w *WAL) close() error { return w.f.Close() }
