package stats

// Snapshot deltas: the windowed-observation API of the Monitor feature.
// A snapshot is cumulative since composition; the sampler takes one
// every tick and differences consecutive (or window-spanning) pairs to
// derive rates and per-window latency quantiles. Counters and histogram
// buckets are monotonic, so the difference is exact: a histogram delta
// holds precisely the observations that landed between the two
// snapshots, and Quantile/P50/P99 on it are the *windowed* quantiles.
//
// Underflow guard: counters only move backwards when the process (and
// registry) restarted between the two snapshots. Like Prometheus rate(),
// Sub then treats the current value as the whole delta instead of
// producing a negative count.

// subCounter differences one monotonic counter with the restart guard:
// cur - prev when non-negative, else cur (counter reset).
func subCounter(cur, prev int64) int64 {
	if d := cur - prev; d >= 0 {
		return d
	}
	return cur
}

// Sub returns the histogram activity between prev and s: per-bucket
// count differences with the underflow guard applied bucket-wise. A
// zero-value prev (nil slices — e.g. the feature owning the histogram
// was not composed when prev was taken) or a prev with different bucket
// bounds yields s unchanged. The result shares s's Bounds slice; the
// quantile and mean helpers work on it like on any snapshot.
func (s HistogramSnapshot) Sub(prev HistogramSnapshot) HistogramSnapshot {
	if len(s.Counts) == 0 ||
		len(prev.Counts) != len(s.Counts) || len(prev.Bounds) != len(s.Bounds) {
		return s
	}
	d := HistogramSnapshot{
		Bounds: s.Bounds,
		Counts: make([]int64, len(s.Counts)),
		Sum:    subCounter(s.Sum, prev.Sum),
	}
	for i := range s.Counts {
		c := subCounter(s.Counts[i], prev.Counts[i])
		d.Counts[i] = c
		d.Count += c
	}
	return d
}

// Sub returns the activity between prev and s: every counter and
// histogram row of the metrics table is differenced with the monotonic
// underflow guard, while gauge rows and the fields outside the table
// (buffer policy, the degraded latch) keep s's current value — a gauge
// difference has no meaning in a window. Sub(Snapshot{}) is s itself,
// so a zero-value baseline reads as "everything since composition".
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	d := s
	for i := range metrics {
		switch m := &metrics[i]; m.kind {
		case counterKind:
			*m.field(&d) = subCounter(*m.field(&s), *m.field(&prev))
		case histogramKind:
			*m.hfield(&d) = m.hfield(&s).Sub(*m.hfield(&prev))
		}
	}
	d.Queries = s.Queries.Sub(prev.Queries)
	return d
}
