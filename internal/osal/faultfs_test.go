package osal

import (
	"errors"
	"testing"
)

// dieAt plans a device that dies at its n-th write-class operation.
func dieAt(n int64) *Schedule {
	return NewSchedule(0).Add(Rule{Class: OpAnyWrite, At: n, Kind: FaultDead})
}

func TestFaultFSDisarmedPassesThrough(t *testing.T) {
	fs := NewFaultFS(NewMemFS())
	s := NewSchedule(0)
	fs.SetSchedule(s)
	f, err := fs.Create("x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("ok"), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 2)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if fs.Tripped() {
		t.Fatal("tripped while disarmed")
	}
	if n := s.Counts()[OpAnyWrite]; n != 2 {
		t.Fatalf("write-class ops = %d", n)
	}
}

func TestFaultFSFailsAtCountdown(t *testing.T) {
	fs := NewFaultFS(NewMemFS())
	f, _ := fs.Create("x")
	fs.SetSchedule(dieAt(3))
	if _, err := f.WriteAt([]byte("1"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("2"), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("3"), 2); !errors.Is(err, ErrInjected) || errors.Is(err, ErrTransient) {
		t.Fatalf("third write = %v, want a plain ErrInjected", err)
	}
	// Stays failed until disarmed.
	if err := f.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("sync after trip = %v", err)
	}
	if !fs.Tripped() {
		t.Fatal("not reported as tripped")
	}
	fs.Disarm()
	if _, err := f.WriteAt([]byte("4"), 3); err != nil {
		t.Fatalf("write after disarm: %v", err)
	}
	// Reads never fail.
	fs.SetSchedule(dieAt(1))
	if _, err := f.ReadAt(make([]byte, 1), 0); err != nil {
		t.Fatalf("read while armed: %v", err)
	}
}

func TestFaultFSCoversAllWriteOps(t *testing.T) {
	fs := NewFaultFS(NewMemFS())
	f, _ := fs.Create("x")
	f.WriteAt([]byte("data"), 0)
	cases := []func() error{
		func() error { return f.Truncate(1) },
		func() error { return f.Sync() },
		func() error { return fs.Remove("x") },
		func() error { return fs.Rename("x", "y") },
	}
	for i, op := range cases {
		fs.SetSchedule(dieAt(1))
		if err := op(); !errors.Is(err, ErrInjected) {
			t.Errorf("case %d = %v, want ErrInjected", i, err)
		}
		fs.Disarm()
	}
}

// TestDeadRuleCountsWriteClassesTogether: an OpAnyWrite rule counts the
// five write classes as one sequence and skips reads.
func TestDeadRuleCountsWriteClassesTogether(t *testing.T) {
	fs := NewFaultFS(NewMemFS())
	f, _ := fs.Create("x")
	s := dieAt(3)
	fs.SetSchedule(s)
	if _, err := f.WriteAt([]byte("data"), 0); err != nil {
		t.Fatalf("write 1: %v", err)
	}
	if _, err := f.ReadAt(make([]byte, 4), 0); err != nil {
		t.Fatalf("read: %v", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("sync 2: %v", err)
	}
	if err := f.Truncate(1); !errors.Is(err, ErrInjected) {
		t.Fatalf("truncate 3 = %v, want ErrInjected", err)
	}
	if err := fs.Rename("x", "y"); !errors.Is(err, ErrInjected) {
		t.Fatalf("rename 4 = %v, want ErrInjected", err)
	}
	if _, err := f.ReadAt(make([]byte, 1), 0); err != nil {
		t.Fatalf("read after death: %v", err)
	}
	counts := s.Counts()
	if counts[OpAnyWrite] != 4 || counts[OpRead] != 2 {
		t.Fatalf("counts = %v", counts)
	}
	if class, ok := fs.TrippedClass(); !ok || class != OpTruncate {
		t.Fatalf("TrippedClass = %v,%v; want truncate,true", class, ok)
	}
}
