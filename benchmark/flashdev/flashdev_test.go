package flashdev

import (
	"bytes"
	"math/rand"
	"testing"

	"famedb/internal/osal"
)

func readAll(t *testing.T, fs osal.FS, name string) []byte {
	t.Helper()
	f, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, size)
	if size > 0 {
		if _, err := f.ReadAt(buf, 0); err != nil {
			t.Fatal(err)
		}
	}
	return buf
}

// The per-class counters, plus the undo log's own reads, must add up to
// what the inner MemFS counted: flashdev neither loses nor invents I/O.
func TestCountersMatchMemFS(t *testing.T) {
	fs := New()
	rng := rand.New(rand.NewSource(1))
	names := []string{"fame.db", "fame.wal", "fame.ckpt", "fame.layout"}
	files := map[string]osal.File{}
	for _, n := range names {
		f, err := fs.Create(n)
		if err != nil {
			t.Fatal(err)
		}
		files[n] = f
	}
	r0, w0, s0, br0, bw0 := fs.Stats().Snapshot()
	before := fs.Snapshot()
	buf := make([]byte, 512)
	for i := 0; i < 2000; i++ {
		f := files[names[rng.Intn(len(names))]]
		off := int64(rng.Intn(8192))
		switch rng.Intn(4) {
		case 0, 1:
			rng.Read(buf)
			if _, err := f.WriteAt(buf[:1+rng.Intn(511)], off); err != nil {
				t.Fatal(err)
			}
		case 2:
			f.ReadAt(buf[:1+rng.Intn(511)], off) // EOF past the end is fine
		case 3:
			if rng.Intn(8) == 0 {
				if err := f.Sync(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	r1, w1, s1, br1, bw1 := fs.Stats().Snapshot()
	got := fs.Snapshot().Sub(before).Total()
	undoReads, undoBytes := fs.UndoReads()
	if got.Reads+undoReads != r1-r0 || got.BytesRead+undoBytes != br1-br0 {
		t.Errorf("reads: classes %d (+%d undo) bytes %d (+%d), MemFS %d bytes %d",
			got.Reads, undoReads, got.BytesRead, undoBytes, r1-r0, br1-br0)
	}
	if got.Writes != w1-w0 || got.BytesWritten != bw1-bw0 {
		t.Errorf("writes: classes %d bytes %d, MemFS %d bytes %d", got.Writes, got.BytesWritten, w1-w0, bw1-bw0)
	}
	if got.Syncs != s1-s0 {
		t.Errorf("syncs: classes %d, MemFS %d", got.Syncs, s1-s0)
	}
	per := fs.Snapshot().Sub(before)
	if per[Page].Writes == 0 || per[WAL].Writes == 0 || per[Ckpt].Writes == 0 {
		t.Errorf("a class saw no writes: %+v", per)
	}
}

// write, write, sync, write, then a power cut: exactly the synced bytes
// remain, whether the last write overwrote, extended or followed a
// truncate.
func TestPowerCutKeepsExactlySyncedBytes(t *testing.T) {
	fs := New()
	f, err := fs.Create("fame.db")
	if err != nil {
		t.Fatal(err)
	}
	f.WriteAt([]byte("aaaaaaaa"), 0)
	f.WriteAt([]byte("bbbb"), 6)
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	want := []byte("aaaaaabbbb")
	f.WriteAt([]byte("XXXXXXXXXXXXXX"), 3) // overwrites and extends
	f.Truncate(2)                          // then cuts below the synced size
	f.WriteAt([]byte("YYYYYY"), 1)         // and writes over the cut
	if err := fs.PowerCut(); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, fs, "fame.db"); !bytes.Equal(got, want) {
		t.Fatalf("after power cut: %q, want %q", got, want)
	}
	if n := fs.UndoBytes(); n != 0 {
		t.Fatalf("undo log holds %d bytes after a power cut", n)
	}

	// A file never synced goes back to empty; a renamed file keeps the
	// synced image it was renamed with.
	g, _ := fs.Create("fame.ckpt.tmp")
	g.WriteAt([]byte("image"), 0)
	g.Sync()
	if err := fs.Rename("fame.ckpt.tmp", "fame.ckpt"); err != nil {
		t.Fatal(err)
	}
	h, _ := fs.Create("fame.wal")
	h.WriteAt([]byte("unsynced"), 0)
	if err := fs.PowerCut(); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, fs, "fame.ckpt"); string(got) != "image" {
		t.Fatalf("renamed file after power cut: %q", got)
	}
	if got := readAll(t, fs, "fame.wal"); len(got) != 0 {
		t.Fatalf("never-synced file after power cut: %q", got)
	}
}

// Randomized: after PowerCut the file holds exactly the image it held at
// its last Sync, whatever mix of overwrites, extensions and truncates
// came after.
func TestPowerCutRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 50; round++ {
		fs := New()
		f, _ := fs.Create("fame.wal")
		var synced []byte
		for i := 0; i < 40; i++ {
			switch rng.Intn(5) {
			case 0, 1, 2:
				p := make([]byte, 1+rng.Intn(60))
				rng.Read(p)
				f.WriteAt(p, int64(rng.Intn(200)))
			case 3:
				f.Truncate(int64(rng.Intn(220)))
			case 4:
				f.Sync()
				synced = readAll(t, fs, "fame.wal")
				if n := fs.UndoBytes(); n != 0 {
					t.Fatalf("undo log holds %d bytes right after Sync", n)
				}
			}
		}
		if err := fs.PowerCut(); err != nil {
			t.Fatal(err)
		}
		if got := readAll(t, fs, "fame.wal"); !bytes.Equal(got, synced) {
			t.Fatalf("round %d: device %x, image at last sync %x", round, got, synced)
		}
	}
}

// The undo log is bounded by the bytes written between two syncs.
func TestUndoLogEmptyAfterSync(t *testing.T) {
	fs := New()
	f, _ := fs.Create("fame.db")
	page := make([]byte, 4096)
	for i := 0; i < 64; i++ {
		f.WriteAt(page, int64(i)*4096)
	}
	f.Sync()
	for round := 0; round < 10; round++ {
		for i := 0; i < 64; i++ {
			f.WriteAt(page, int64(i)*4096)
		}
		if n := fs.UndoBytes(); n != 64*4096 {
			t.Fatalf("round %d: undo log holds %d bytes, want %d", round, n, 64*4096)
		}
		f.Sync()
		if n := fs.UndoBytes(); n != 0 {
			t.Fatalf("round %d: undo log holds %d bytes after Sync", round, n)
		}
	}
}
