package repl

import (
	"bytes"
	"testing"

	"famedb/internal/stats"
)

func TestShipperFansOutInOrder(t *testing.T) {
	s := NewShipper(nil)
	f1, f2 := s.Subscribe(), s.Subscribe()
	s.OnShip(8, []byte("aaaa"))
	s.OnShip(12, []byte("bb"))
	for _, f := range []*Feed{f1, f2} {
		fr := <-f.C()
		if fr.Seq != 1 || fr.Base != 8 || !bytes.Equal(fr.Bytes, []byte("aaaa")) {
			t.Fatalf("frame 1 = %+v", fr)
		}
		fr = <-f.C()
		if fr.Seq != 2 || fr.Base != 12 || !bytes.Equal(fr.Bytes, []byte("bb")) {
			t.Fatalf("frame 2 = %+v", fr)
		}
	}
	s.Unsubscribe(f1)
	if _, ok := <-f1.C(); ok {
		t.Fatal("unsubscribed feed channel should be closed")
	}
	s.Close()
	if _, ok := <-f2.C(); ok {
		t.Fatal("closed shipper should close remaining feeds")
	}
}

func TestShipperOverflowBreaksFeedNotCommit(t *testing.T) {
	reg := stats.New()
	s := NewShipper(reg)
	s.depth = 2
	f := s.Subscribe()
	// Nobody drains: the third chunk overflows; shipping never blocks.
	s.OnShip(8, []byte("a"))
	s.OnShip(9, []byte("b"))
	s.OnShip(10, []byte("c"))
	if !f.Broken() {
		t.Fatal("overflowed feed should be broken")
	}
	if f.Dropped() != 1 {
		t.Fatalf("dropped = %d", f.Dropped())
	}
	if got := reg.Snapshot().Repl; got.Drops != 1 || got.StaleMarks != 1 {
		t.Fatalf("repl stats = %+v", got)
	}
	// Repair drains stale frames and re-arms.
	s.Repair(f)
	if f.Broken() {
		t.Fatal("repaired feed still broken")
	}
	s.OnShip(11, []byte("d"))
	fr := <-f.C()
	if !bytes.Equal(fr.Bytes, []byte("d")) {
		t.Fatalf("post-repair frame = %+v", fr)
	}
}

func TestShipperRewindBreaksFeeds(t *testing.T) {
	s := NewShipper(nil)
	f := s.Subscribe()
	s.OnShip(8, []byte("aaaa")) // end now 12
	if f.Broken() {
		t.Fatal("feed broken too early")
	}
	// A checkpoint reset the primary WAL: the next chunk lands at 8,
	// not 12 — the base chain is broken.
	s.OnShip(8, []byte("cc"))
	if !f.Broken() {
		t.Fatal("rewind should break the feed")
	}
}
