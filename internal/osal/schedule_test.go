package osal

import (
	"bytes"
	"errors"
	"testing"
)

func schedFS(t *testing.T, seed int64) (*FaultFS, *Schedule) {
	t.Helper()
	ffs := NewFaultFS(NewMemFS())
	s := NewSchedule(seed)
	ffs.SetSchedule(s)
	return ffs, s
}

func writeFile(t *testing.T, fs FS, name string, data []byte) {
	t.Helper()
	f, err := fs.Create(name)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestScheduleReadError(t *testing.T) {
	ffs, _ := schedFS(t, 1)
	writeFile(t, ffs, "a", []byte("hello world"))
	f, err := ffs.Open("a")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer f.Close()
	buf := make([]byte, 5)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatalf("read 1 should pass: %v", err)
	}
	ffs.Schedule().Add(Rule{Class: OpRead, At: 2, Kind: FaultError})
	if _, err := f.ReadAt(buf, 0); !errors.Is(err, ErrInjected) {
		t.Fatalf("read 2 should fail injected, got %v", err)
	}
	if errorsIsTransient(err) {
		t.Fatalf("permanent rule must not be transient")
	}
	class, ok := ffs.TrippedClass()
	if !ok || class != OpRead {
		t.Fatalf("TrippedClass = %v,%v; want read,true", class, ok)
	}
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatalf("read 3 should pass again: %v", err)
	}
}

func errorsIsTransient(err error) bool { return errors.Is(err, ErrTransient) }

func TestScheduleTransientHeals(t *testing.T) {
	ffs, s := schedFS(t, 2)
	s.Add(Rule{Class: OpWrite, At: 2, Kind: FaultError, Heal: 3})
	f, err := ffs.Create("a")
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	defer f.Close()
	data := []byte("xyz")
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatalf("write 1: %v", err)
	}
	for i := 2; i <= 4; i++ {
		_, err := f.WriteAt(data, 0)
		if !errors.Is(err, ErrTransient) {
			t.Fatalf("write %d: want ErrTransient, got %v", i, err)
		}
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("write %d: transient must also match ErrInjected", i)
		}
	}
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatalf("write 5 should heal: %v", err)
	}
	if got := len(s.Injections()); got != 3 {
		t.Fatalf("injection log length = %d, want 3", got)
	}
}

func TestScheduleTornWrite(t *testing.T) {
	ffs, s := schedFS(t, 3)
	s.Add(Rule{Class: OpWrite, At: 1, Kind: FaultTorn})
	f, err := ffs.Create("a")
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	defer f.Close()
	page := bytes.Repeat([]byte{0xAB}, 256)
	n, err := f.WriteAt(page, 0)
	if err != nil || n != len(page) {
		t.Fatalf("torn write must report success, got n=%d err=%v", n, err)
	}
	inj := s.Injections()
	if len(inj) != 1 || inj[0].Kind != FaultTorn {
		t.Fatalf("injection log = %v", inj)
	}
	if inj[0].Len <= 0 || inj[0].Len >= len(page) {
		t.Fatalf("torn prefix %d out of (0,%d)", inj[0].Len, len(page))
	}
	size, err := f.Size()
	if err != nil {
		t.Fatalf("Size: %v", err)
	}
	if size != int64(inj[0].Len) {
		t.Fatalf("persisted %d bytes, injection says %d", size, inj[0].Len)
	}
	got := make([]byte, inj[0].Len)
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	if !bytes.Equal(got, page[:inj[0].Len]) {
		t.Fatalf("surviving prefix differs from written prefix")
	}
}

func TestSchedulePartialWrite(t *testing.T) {
	ffs, s := schedFS(t, 4)
	s.Add(Rule{Class: OpWrite, At: 1, Kind: FaultPartial})
	f, err := ffs.Create("a")
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	defer f.Close()
	page := bytes.Repeat([]byte{0x5C}, 128)
	n, err := f.WriteAt(page, 0)
	if !errors.Is(err, ErrTransient) {
		t.Fatalf("partial write must be transient, got %v", err)
	}
	if n <= 0 || n >= len(page) {
		t.Fatalf("short count %d out of (0,%d)", n, len(page))
	}
	// Retrying the same write must succeed and complete the page.
	if m, err := f.WriteAt(page, 0); err != nil || m != len(page) {
		t.Fatalf("retry: n=%d err=%v", m, err)
	}
	got := make([]byte, len(page))
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	if !bytes.Equal(got, page) {
		t.Fatalf("page content differs after retry")
	}
}

func TestScheduleFlipRead(t *testing.T) {
	ffs, s := schedFS(t, 5)
	data := bytes.Repeat([]byte{0x00}, 64)
	writeFile(t, ffs, "a", data)
	s.Add(Rule{Class: OpRead, At: 1, Kind: FaultFlipRead})
	f, err := ffs.Open("a")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer f.Close()
	got := make([]byte, len(data))
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	if bytes.Equal(got, data) {
		t.Fatalf("flip-read returned pristine data")
	}
	diff := 0
	for i := range got {
		if got[i] != data[i] {
			diff++
			if b := got[i] ^ data[i]; b&(b-1) != 0 {
				t.Fatalf("byte %d differs by more than one bit: %02x", i, b)
			}
		}
	}
	if diff != 1 {
		t.Fatalf("%d bytes differ, want exactly 1", diff)
	}
	// The stored data is untouched: a second read is clean.
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatalf("ReadAt 2: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("flip-read must not corrupt at rest")
	}
}

func TestScheduleFlipAtRest(t *testing.T) {
	ffs, s := schedFS(t, 6)
	s.Add(Rule{Class: OpWrite, At: 1, Kind: FaultFlipAtRest})
	f, err := ffs.Create("a")
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	defer f.Close()
	data := bytes.Repeat([]byte{0xFF}, 64)
	if n, err := f.WriteAt(data, 0); err != nil || n != len(data) {
		t.Fatalf("WriteAt: n=%d err=%v", n, err)
	}
	// Remove the schedule so reads are clean; corruption must persist.
	ffs.SetSchedule(nil)
	got := make([]byte, len(data))
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	if bytes.Equal(got, data) {
		t.Fatalf("flip-at-rest left data pristine")
	}
	inj := s.Injections()
	if len(inj) != 1 || inj[0].Kind != FaultFlipAtRest || inj[0].Len != 1 {
		t.Fatalf("injection log = %v", inj)
	}
	if got[inj[0].Off] != data[inj[0].Off]^(1<<inj[0].Bit) {
		t.Fatalf("injection log does not describe the actual flip")
	}
}

// TestScheduleReplayDeterminism: two runs with equal seeds and rules
// deliver byte-identical injections; a different seed differs.
func TestScheduleReplayDeterminism(t *testing.T) {
	run := func(seed int64) []Injection {
		ffs, s := schedFS(t, seed)
		s.Add(Rule{Class: OpWrite, At: 1, Kind: FaultTorn})
		s.Add(Rule{Class: OpWrite, At: 3, Kind: FaultFlipAtRest})
		s.Add(Rule{Class: OpRead, At: 2, Kind: FaultFlipRead})
		f, err := ffs.Create("a")
		if err != nil {
			t.Fatalf("Create: %v", err)
		}
		defer f.Close()
		page := bytes.Repeat([]byte{0x42}, 512)
		buf := make([]byte, 512)
		for i := 0; i < 4; i++ {
			f.WriteAt(page, int64(i)*512)
		}
		for i := 0; i < 3; i++ {
			f.ReadAt(buf, 0)
		}
		return s.Injections()
	}
	a, b := run(99), run(99)
	if len(a) != 3 || len(b) != 3 {
		t.Fatalf("injection counts = %d,%d; want 3,3", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := run(100)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatalf("different seeds produced identical torn/flip choices")
	}
}

// TestScheduleMetadataClasses: sync/truncate/remove/rename rules fire
// on their own counters.
func TestScheduleMetadataClasses(t *testing.T) {
	ffs, s := schedFS(t, 7)
	s.Add(Rule{Class: OpSync, At: 1, Kind: FaultError, Heal: 1})
	s.Add(Rule{Class: OpRemove, At: 1, Kind: FaultError})
	f, err := ffs.Create("a")
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrTransient) {
		t.Fatalf("sync 1: want transient, got %v", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("sync 2 should heal: %v", err)
	}
	f.Close()
	if err := ffs.Remove("a"); !errors.Is(err, ErrInjected) {
		t.Fatalf("remove: want injected, got %v", err)
	}
	counts := s.Counts()
	if counts[OpSync] != 2 || counts[OpRemove] != 1 {
		t.Fatalf("counts = %v", counts)
	}
}

// TestLegacyCountdownIgnoresReads pins the contract of a dead device:
// an OpAnyWrite FaultDead rule never touches the read path.
func TestLegacyCountdownIgnoresReads(t *testing.T) {
	ffs := NewFaultFS(NewMemFS())
	writeFile(t, ffs, "a", []byte("data"))
	ffs.SetSchedule(dieAt(1))
	f, err := ffs.Open("a")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer f.Close()
	buf := make([]byte, 4)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatalf("read on a dead device must pass: %v", err)
	}
	if _, err := f.WriteAt(buf, 0); !errors.Is(err, ErrInjected) {
		t.Fatalf("write must trip: %v", err)
	}
	if class, ok := ffs.TrippedClass(); !ok || class != OpWrite {
		t.Fatalf("TrippedClass = %v,%v; want write,true", class, ok)
	}
}
