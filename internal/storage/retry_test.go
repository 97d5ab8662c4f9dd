package storage

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"famedb/internal/osal"
)

func newRetryStack(t *testing.T, policy RetryPolicy) (*RetryPager, *osal.FaultFS, *Health) {
	t.Helper()
	ffs := osal.NewFaultFS(osal.NewMemFS())
	f, err := ffs.Create("test.db")
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	pf, err := CreatePageFile(f, 256)
	if err != nil {
		t.Fatalf("CreatePageFile: %v", err)
	}
	h := NewHealth()
	return NewRetryPager(pf, policy, h), ffs, h
}

// TestRetryHealsTransient: a transient fault inside the retry budget is
// invisible to the caller, and the injected clock sees the backoff.
func TestRetryHealsTransient(t *testing.T) {
	var slept []time.Duration
	policy := RetryPolicy{
		Attempts: 4,
		Backoff:  time.Millisecond,
		Sleep:    func(d time.Duration) { slept = append(slept, d) },
	}
	rp, ffs, h := newRetryStack(t, policy)
	defer rp.Close()
	id, err := rp.Alloc()
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	// Writes 1..2 from now fail transiently, then the device heals.
	s := osal.NewSchedule(1)
	s.Add(osal.Rule{Class: osal.OpWrite, At: 1, Kind: osal.FaultError, Heal: 2})
	ffs.SetSchedule(s)
	page := bytes.Repeat([]byte{0x11}, rp.PageSize())
	if err := rp.WritePage(id, page); err != nil {
		t.Fatalf("WritePage should retry through transient faults: %v", err)
	}
	if h.Degraded() {
		t.Fatalf("healed fault must not poison")
	}
	want := []time.Duration{time.Millisecond, 2 * time.Millisecond}
	if len(slept) != len(want) || slept[0] != want[0] || slept[1] != want[1] {
		t.Fatalf("backoff sleeps = %v, want %v", slept, want)
	}
}

// TestRetryExhaustionPoisons: a transient fault outliving the budget
// poisons the shared latch — writes return ErrDegraded, reads serve.
func TestRetryExhaustionPoisons(t *testing.T) {
	policy := RetryPolicy{Attempts: 2, Sleep: func(time.Duration) {}}
	rp, ffs, h := newRetryStack(t, policy)
	defer rp.Close()
	id, err := rp.Alloc()
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	page := bytes.Repeat([]byte{0x22}, rp.PageSize())
	if err := rp.WritePage(id, page); err != nil {
		t.Fatalf("WritePage: %v", err)
	}

	var degradedWith error
	h.OnDegrade(func(reason error) { degradedWith = reason })

	// A long transient outage: more consecutive failures than attempts.
	s := osal.NewSchedule(2)
	s.Add(osal.Rule{Class: osal.OpWrite, At: 1, Kind: osal.FaultError, Heal: 10})
	ffs.SetSchedule(s)
	err = rp.WritePage(id, page)
	if !errors.Is(err, osal.ErrTransient) {
		t.Fatalf("exhausting write = %v, want the transient error", err)
	}
	if !h.Degraded() {
		t.Fatalf("exhaustion must poison the latch")
	}
	if degradedWith == nil || !errors.Is(degradedWith, osal.ErrTransient) {
		t.Fatalf("OnDegrade reason = %v", degradedWith)
	}
	ffs.SetSchedule(nil)

	// Writes now refuse with ErrDegraded without touching the device.
	if err := rp.WritePage(id, page); !errors.Is(err, ErrDegraded) {
		t.Fatalf("degraded WritePage = %v, want ErrDegraded", err)
	}
	if _, err := rp.Alloc(); !errors.Is(err, ErrDegraded) {
		t.Fatalf("degraded Alloc = %v, want ErrDegraded", err)
	}
	if err := rp.Sync(); !errors.Is(err, ErrDegraded) {
		t.Fatalf("degraded Sync = %v, want ErrDegraded", err)
	}
	// Reads keep serving the pre-fault data.
	got := make([]byte, rp.PageSize())
	if err := rp.ReadPage(id, got); err != nil {
		t.Fatalf("degraded ReadPage = %v, want success", err)
	}
	if !bytes.Equal(got, page) {
		t.Fatalf("degraded read returned wrong data")
	}
}

// TestRetryPermanentPropagates: permanent injected faults are not
// retried and do not poison.
func TestRetryPermanentPropagates(t *testing.T) {
	attempts := 0
	policy := RetryPolicy{Attempts: 5, Sleep: func(time.Duration) { attempts++ }}
	rp, ffs, h := newRetryStack(t, policy)
	id, err := rp.Alloc()
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	ffs.SetSchedule(osal.NewSchedule(0).Add(osal.Rule{Class: osal.OpAnyWrite, At: 1, Kind: osal.FaultDead}))
	page := bytes.Repeat([]byte{0x33}, rp.PageSize())
	err = rp.WritePage(id, page)
	if !errors.Is(err, osal.ErrInjected) || errors.Is(err, osal.ErrTransient) {
		t.Fatalf("permanent fault = %v", err)
	}
	if attempts != 0 {
		t.Fatalf("permanent fault was retried %d times", attempts)
	}
	if h.Degraded() {
		t.Fatalf("permanent fault must not poison (crash-window tests recover by disarming)")
	}
}

// TestRetryCorruptNotRetried: ErrPageCorrupt is not transient — the
// retry layer must hand it straight up.
func TestRetryCorruptNotRetried(t *testing.T) {
	ffs := osal.NewFaultFS(osal.NewMemFS())
	f, _ := ffs.Create("test.db")
	pf, err := CreatePageFile(f, 256)
	if err != nil {
		t.Fatalf("CreatePageFile: %v", err)
	}
	cp, err := NewChecksumPager(pf)
	if err != nil {
		t.Fatalf("NewChecksumPager: %v", err)
	}
	retried := 0
	rp := NewRetryPager(cp, RetryPolicy{Attempts: 3, Sleep: func(time.Duration) { retried++ }}, NewHealth())
	defer rp.Close()
	id, _ := rp.Alloc()
	page := bytes.Repeat([]byte{0x44}, rp.PageSize())
	s := osal.NewSchedule(9)
	s.Add(osal.Rule{Class: osal.OpWrite, At: 1, Kind: osal.FaultTorn})
	ffs.SetSchedule(s)
	if err := rp.WritePage(id, page); err != nil {
		t.Fatalf("torn write: %v", err)
	}
	ffs.SetSchedule(nil)
	buf := make([]byte, rp.PageSize())
	if err := rp.ReadPage(id, buf); !errors.Is(err, ErrPageCorrupt) {
		t.Fatalf("ReadPage = %v, want ErrPageCorrupt", err)
	}
	if retried != 0 {
		t.Fatalf("corruption was retried %d times", retried)
	}
}

// TestHealthConcurrentPoison: racing Poison calls latch exactly once
// and concurrent readers of the gate never see a torn state.
func TestHealthConcurrentPoison(t *testing.T) {
	h := NewHealth()
	fired := 0
	h.OnDegrade(func(error) { fired++ })
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			h.Poison(errors.New("race"))
		}(i)
		go func() {
			defer wg.Done()
			if h.Degraded() && h.Reason() == nil {
				t.Error("degraded with nil reason")
			}
		}()
	}
	wg.Wait()
	if fired != 1 {
		t.Fatalf("OnDegrade fired %d times, want 1", fired)
	}
	if !errors.Is(h.Err(), ErrDegraded) {
		t.Fatalf("Err = %v", h.Err())
	}
}
