package trace

import (
	"sync"
	"sync/atomic"
)

// ring is the fixed-capacity completed-span recorder. Every slot is
// preallocated at construction; recording copies the SpanRecord into
// slot (ticket mod capacity) under that slot's stripe lock, so the hot
// path never allocates. Stripes interleave (slot mod stripes), so
// recorders holding neighbouring tickets take different locks.
//
// A single global atomic ticket orders admissions: record i lands in
// slot i%cap, so once the ring is full each new span overwrites exactly
// the oldest surviving record — eviction is strictly oldest-first by
// construction, not by policy.
type ring struct {
	slots   []SpanRecord
	stripes []sync.Mutex
	ticket  atomic.Uint64
}

func newRing(capacity, stripes int) *ring {
	if stripes > capacity {
		stripes = capacity
	}
	return &ring{
		slots:   make([]SpanRecord, capacity),
		stripes: make([]sync.Mutex, stripes),
	}
}

// record copies rec into the ring, stamping its admission ticket.
func (r *ring) record(rec *SpanRecord) {
	seq := r.ticket.Add(1) - 1
	rec.Seq = seq
	slot := seq % uint64(len(r.slots))
	st := &r.stripes[slot%uint64(len(r.stripes))]
	st.Lock()
	r.slots[slot] = *rec
	st.Unlock()
}

// snapshot copies the surviving records, oldest first, holding every
// stripe lock so no slot is torn mid-copy. Writers that have taken a
// ticket but not yet reached their stripe lock are not waited for;
// their slot still holds the previous (valid) record.
func (r *ring) snapshot() (spans []SpanRecord, recorded uint64) {
	for i := range r.stripes {
		r.stripes[i].Lock()
	}
	recorded = r.ticket.Load()
	n := recorded
	if n > uint64(len(r.slots)) {
		n = uint64(len(r.slots))
	}
	spans = make([]SpanRecord, 0, n)
	for i := range r.slots {
		if r.slots[i].ID != 0 {
			spans = append(spans, r.slots[i])
		}
	}
	for i := range r.stripes {
		r.stripes[i].Unlock()
	}
	sortRecords(spans)
	return spans, recorded
}

// sortRecords orders records by admission ticket (insertion sort is
// fine: snapshots are cold-path and slots are already nearly ordered —
// slot order differs from ticket order only by the ring rotation).
func sortRecords(recs []SpanRecord) {
	for i := 1; i < len(recs); i++ {
		for j := i; j > 0 && recs[j].Seq < recs[j-1].Seq; j-- {
			recs[j], recs[j-1] = recs[j-1], recs[j]
		}
	}
}
