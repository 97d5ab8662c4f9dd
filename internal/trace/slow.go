package trace

import "sync"

// Tree is one complete operation: a root span plus its completed
// descendants in completion order. The slow-op log stores Trees; the
// exporters also regroup the flat ring into Trees for display.
type Tree struct {
	Root  SpanRecord   `json:"root"`
	Spans []SpanRecord `json:"spans,omitempty"`
	// Dropped counts descendants that exceeded the per-tree retention
	// cap and were recorded only in the ring, not in this tree.
	Dropped int `json:"dropped_spans,omitempty"`
}

// slowLog keeps the N worst (longest) complete span trees whose root
// duration met the threshold. Unlike the ring — which evicts by age —
// the slow log evicts by severity, so a burst of fast traffic cannot
// wash out the trace of yesterday's 80ms commit.
type slowLog struct {
	threshold int64 // nanoseconds; roots at least this long qualify
	max       int

	mu      sync.Mutex
	trees   []Tree // sorted by Root.Dur descending
	evicted int64
}

// add offers a qualifying root and its retained descendants. The tree
// is copied — the caller's slices go back to the span pool.
func (l *slowLog) add(root SpanRecord, kids []SpanRecord, dropped int) {
	t := Tree{Root: root, Spans: append([]SpanRecord(nil), kids...), Dropped: dropped}
	l.mu.Lock()
	i := len(l.trees)
	for i > 0 && l.trees[i-1].Root.Dur < root.Dur {
		i--
	}
	l.trees = append(l.trees, Tree{})
	copy(l.trees[i+1:], l.trees[i:])
	l.trees[i] = t
	if len(l.trees) > l.max {
		l.trees = l.trees[:l.max]
		l.evicted++
	}
	l.mu.Unlock()
}

// snapshot copies the current worst-first tree list.
func (l *slowLog) snapshot() ([]Tree, int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Tree, len(l.trees))
	copy(out, l.trees)
	return out, l.evicted
}

func (l *slowLog) stats() (count int, evicted int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.trees), l.evicted
}
