package storage

// Retry-with-backoff and the degraded-mode latch. Transient device
// errors (osal.ErrTransient — an interrupted write, a bus glitch that
// heals) are retried a bounded number of times with exponential
// backoff; permanent errors propagate untouched on the first attempt.
// When a transient fault outlives the retry budget the shared Health
// latch poisons the engine into degraded read-only mode: write-class
// operations return ErrDegraded from then on, reads keep serving, and
// the reason lands in the stats counters and a trace span — an
// embedded node that cannot flash-write anymore should keep answering
// queries rather than die.

import (
	"errors"
	"sync"
	"time"

	"famedb/internal/osal"
	"famedb/internal/stats"
	"famedb/internal/trace"
)

// RetryPolicy bounds how hard the engine fights transient faults.
type RetryPolicy struct {
	// Attempts is the total tries per operation, including the first.
	// Values < 1 mean 1 (no retries).
	Attempts int
	// Backoff is the sleep before the first retry; it doubles each
	// further retry. Zero retries without sleeping.
	Backoff time.Duration
	// Sleep is the clock used between attempts; nil means time.Sleep.
	// Tests inject a recording clock here.
	Sleep func(time.Duration)
}

// DefaultRetryPolicy is the composer's default: three attempts with a
// short doubling backoff.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{Attempts: 3, Backoff: time.Millisecond}
}

func (p RetryPolicy) attempts() int {
	if p.Attempts < 1 {
		return 1
	}
	return p.Attempts
}

func (p RetryPolicy) sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	if p.Sleep != nil {
		p.Sleep(d)
		return
	}
	time.Sleep(d)
}

// Health is the engine-wide degraded-mode latch, shared by the page
// path (RetryPager) and the WAL (txn.Manager). All methods are safe on
// a nil receiver (never-degraded) and for concurrent use.
type Health struct {
	mu       sync.Mutex
	degraded bool
	reason   error
	onceFns  []func(error)
}

// NewHealth returns a healthy latch.
func NewHealth() *Health { return &Health{} }

// OnDegrade registers fn to run once when the latch poisons (the
// composer hooks stats counters and a trace span here). If the latch is
// already poisoned, fn runs immediately.
func (h *Health) OnDegrade(fn func(error)) {
	if h == nil {
		return
	}
	h.mu.Lock()
	if h.degraded {
		reason := h.reason
		h.mu.Unlock()
		fn(reason)
		return
	}
	h.onceFns = append(h.onceFns, fn)
	h.mu.Unlock()
}

// Poison latches degraded mode with the given reason. The first reason
// wins; later calls are no-ops.
func (h *Health) Poison(reason error) {
	if h == nil {
		return
	}
	h.mu.Lock()
	if h.degraded {
		h.mu.Unlock()
		return
	}
	h.degraded = true
	h.reason = reason
	fns := h.onceFns
	h.onceFns = nil
	h.mu.Unlock()
	for _, fn := range fns {
		fn(reason)
	}
}

// Degraded reports whether the latch has poisoned.
func (h *Health) Degraded() bool {
	if h == nil {
		return false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.degraded
}

// Reason returns the poisoning cause, or nil while healthy.
func (h *Health) Reason() error {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.reason
}

// Err returns nil while healthy, or ErrDegraded (wrapping the reason)
// once poisoned — the gate write paths consult before touching the
// device.
func (h *Health) Err() error {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.degraded {
		return nil
	}
	return &degradedError{reason: h.reason}
}

// degradedError wraps ErrDegraded with the poisoning reason.
type degradedError struct{ reason error }

func (e *degradedError) Error() string {
	if e.reason == nil {
		return ErrDegraded.Error()
	}
	return ErrDegraded.Error() + ": " + e.reason.Error()
}

func (e *degradedError) Is(target error) bool { return target == ErrDegraded }

func (e *degradedError) Unwrap() error { return e.reason }

// RetryPager wraps any Pager with the retry policy and the degraded
// gate. It composes above ChecksumPager (so a retried read re-verifies
// the trailer) and below the buffer pools.
type RetryPager struct {
	base   Seam
	policy RetryPolicy
	health *Health
	// metrics observes transients and retries when Statistics is
	// composed; nil otherwise.
	metrics *stats.Registry
}

// NewRetryPager wraps base. health may be nil (no degraded gate — every
// exhaustion just returns its error).
func NewRetryPager(base Pager, policy RetryPolicy, health *Health) *RetryPager {
	return &RetryPager{base: SeamOf(base), policy: policy, health: health}
}

// SetMetrics attaches the Statistics feature's fault counters.
func (rp *RetryPager) SetMetrics(m *stats.Registry) { rp.metrics = m }

// Health returns the shared degraded-mode latch.
func (rp *RetryPager) Health() *Health { return rp.health }

// Base returns the wrapped pager.
func (rp *RetryPager) Base() Pager { return rp.base.Pager }

// Retry runs fn under the policy: transient errors are retried with
// doubling backoff; exhaustion poisons health. Exported so the WAL can
// share the exact policy semantics on its append/sync path.
func Retry(policy RetryPolicy, health *Health, metrics *stats.Registry, op string, fn func() error) error {
	backoff := policy.Backoff
	tries := policy.attempts()
	var err error
	for attempt := 1; ; attempt++ {
		err = fn()
		if err == nil || !errors.Is(err, osal.ErrTransient) {
			return err
		}
		metrics.Add(stats.FaultTransients, 1)
		if attempt >= tries {
			break
		}
		metrics.Add(stats.FaultRetries, 1)
		policy.sleep(backoff)
		backoff *= 2
	}
	health.Poison(&PageError{Op: op, Err: err})
	return err
}

func (rp *RetryPager) retry(op string, fn func() error) error {
	return Retry(rp.policy, rp.health, rp.metrics, op, fn)
}

// PageSize implements Pager.
func (rp *RetryPager) PageSize() int { return rp.base.PageSize() }

// Alloc implements Pager: gated by degraded mode, retried on transient
// faults.
func (rp *RetryPager) Alloc() (PageID, error) {
	if err := rp.health.Err(); err != nil {
		return 0, err
	}
	var id PageID
	err := rp.retry("alloc", func() error {
		var e error
		id, e = rp.base.Alloc()
		return e
	})
	return id, err
}

// Free implements Pager: gated by degraded mode, retried on transient
// faults.
func (rp *RetryPager) Free(id PageID) error {
	if err := rp.health.Err(); err != nil {
		return err
	}
	return rp.retry("free", func() error { return rp.base.Free(id) })
}

// ReadPage implements Pager: never gated — degraded mode keeps serving
// reads — but transient read errors are retried.
func (rp *RetryPager) ReadPage(id PageID, buf []byte) error { return rp.ReadPageIn(nil, id, buf) }

// ReadPageIn implements SpanPager, forwarding parent to the base pager.
func (rp *RetryPager) ReadPageIn(parent *trace.Span, id PageID, buf []byte) error {
	return rp.retry("read", func() error { return rp.base.ReadIn(parent, id, buf) })
}

// WritePage implements Pager: gated by degraded mode, retried on
// transient faults.
func (rp *RetryPager) WritePage(id PageID, buf []byte) error { return rp.WritePageIn(nil, id, buf) }

// WritePageIn implements SpanPager, forwarding parent to the base pager.
func (rp *RetryPager) WritePageIn(parent *trace.Span, id PageID, buf []byte) error {
	if err := rp.health.Err(); err != nil {
		return err
	}
	return rp.retry("write", func() error { return rp.base.WriteIn(parent, id, buf) })
}

// Sync implements Pager: gated by degraded mode, retried on transient
// faults.
func (rp *RetryPager) Sync() error {
	if err := rp.health.Err(); err != nil {
		return err
	}
	return rp.retry("sync", func() error { return rp.base.Sync() })
}

// Close implements Pager. Never gated: a degraded engine must still
// release its file handle. A transient close-time sync failure is not
// retried — the data either made it by now or never will.
func (rp *RetryPager) Close() error { return rp.base.Close() }
