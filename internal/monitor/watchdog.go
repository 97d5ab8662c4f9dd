package monitor

import (
	"fmt"
	"sort"
	"time"
)

// Thresholds are the declarative watchdog rules. A zero threshold
// disables its rule, so an unconfigured monitor only watches the
// degraded latch (which has no threshold to tune — degraded is always
// worth an alert).
type Thresholds struct {
	// CommitStallP99 alerts when the windowed commit-stall p99 exceeds
	// it. Stalls are what the group-commit pipeline adds to a commit
	// while it waits for the leader's fsync — the paper's NFP loop
	// trades that latency for throughput, and this rule says when the
	// trade has gone bad.
	CommitStallP99 time.Duration
	// HitRateFloor alerts when the windowed buffer hit rate falls below
	// it (0..1). Windows without cache traffic do not count.
	HitRateFloor float64
	// WALGrowthBytes alerts when the journal grew more than this many
	// bytes across the window — checkpointing is not keeping up.
	WALGrowthBytes int64
	// TraceDropsPerSec alerts when the span ring overwrites more than
	// this many unread spans per second — the ring is undersized for
	// the workload.
	TraceDropsPerSec float64
	// ReplicaLagBytes alerts when the worst-lagging replica is more
	// than this many WAL bytes behind the primary — the replica is not
	// keeping up with the commit stream.
	ReplicaLagBytes int64
	// ReplicaMinConnected alerts when fewer than this many replicas are
	// connected — a replica was lost (or never arrived).
	ReplicaMinConnected int64
}

// Rule is one watchdog predicate, evaluated against every fresh
// window. Check returns whether the rule fires plus a human-readable
// detail for the event log.
type Rule struct {
	Name  string
	Check func(Window) (firing bool, detail string)
}

// Event is one entry in the operational event log: a rule transition
// (firing or clearing) with the detail at transition time.
type Event struct {
	Seq    uint64    `json:"seq"`
	Time   time.Time `json:"time"`
	Rule   string    `json:"rule"`
	Kind   string    `json:"kind"` // "alert" | "clear"
	Detail string    `json:"detail"`
}

// Alert reports whether the event is an alert (vs a clear).
func (e Event) Alert() bool { return e.Kind == "alert" }

func (e Event) String() string {
	return fmt.Sprintf("%s %-5s %-16s %s",
		e.Time.Format("15:04:05.000"), e.Kind, e.Rule, e.Detail)
}

// ActiveRule is a currently-firing rule with its latest detail.
type ActiveRule struct {
	Rule   string    `json:"rule"`
	Since  time.Time `json:"since"`
	Detail string    `json:"detail"`
}

// watchdog evaluates the rule set and tracks per-rule firing state so
// the event log records transitions, not every hot tick. All methods
// run under the monitor's lock.
type watchdog struct {
	rules  []Rule
	firing map[string]*ActiveRule
	seq    uint64
	alerts uint64
}

func newWatchdog(t Thresholds) *watchdog {
	rules := []Rule{{
		// The degraded rule is always on: the storage layer poisoned
		// itself (retries exhausted, checksum mismatch, ...) and fell
		// back to best-effort reads.
		Name: "degraded",
		Check: func(w Window) (bool, string) {
			if !w.Degraded {
				return false, ""
			}
			return true, "storage degraded: " + w.DegradedReason
		},
	}}
	if t.CommitStallP99 > 0 {
		limit := float64(t.CommitStallP99.Nanoseconds())
		rules = append(rules, Rule{
			Name: "commit-stall-p99",
			Check: func(w Window) (bool, string) {
				if w.StallP99Ns <= limit {
					return false, ""
				}
				return true, fmt.Sprintf("windowed commit-stall p99 %s > %s",
					time.Duration(w.StallP99Ns), t.CommitStallP99)
			},
		})
	}
	if t.HitRateFloor > 0 {
		rules = append(rules, Rule{
			Name: "hit-rate",
			Check: func(w Window) (bool, string) {
				if w.HitRate < 0 || w.HitRate >= t.HitRateFloor {
					return false, ""
				}
				return true, fmt.Sprintf("windowed buffer hit rate %.3f < floor %.3f",
					w.HitRate, t.HitRateFloor)
			},
		})
	}
	if t.WALGrowthBytes > 0 {
		rules = append(rules, Rule{
			Name: "wal-growth",
			Check: func(w Window) (bool, string) {
				if w.WALGrowthBytes <= t.WALGrowthBytes {
					return false, ""
				}
				return true, fmt.Sprintf("WAL grew %d bytes in %.1fs window (limit %d)",
					w.WALGrowthBytes, w.Seconds, t.WALGrowthBytes)
			},
		})
	}
	if t.TraceDropsPerSec > 0 {
		rules = append(rules, Rule{
			Name: "trace-drops",
			Check: func(w Window) (bool, string) {
				if w.TraceDropsPerSec <= t.TraceDropsPerSec {
					return false, ""
				}
				return true, fmt.Sprintf("trace ring dropping %.1f spans/s (limit %.1f)",
					w.TraceDropsPerSec, t.TraceDropsPerSec)
			},
		})
	}
	if t.ReplicaLagBytes > 0 {
		rules = append(rules, Rule{
			Name: "replica-lag",
			Check: func(w Window) (bool, string) {
				if w.ReplicaLagBytes <= t.ReplicaLagBytes {
					return false, ""
				}
				return true, fmt.Sprintf("worst replica lags %d WAL bytes (limit %d)",
					w.ReplicaLagBytes, t.ReplicaLagBytes)
			},
		})
	}
	if t.ReplicaMinConnected > 0 {
		rules = append(rules, Rule{
			Name: "replica-lost",
			Check: func(w Window) (bool, string) {
				if w.ReplicasConnected >= t.ReplicaMinConnected {
					return false, ""
				}
				return true, fmt.Sprintf("%d replicas connected, want >= %d",
					w.ReplicasConnected, t.ReplicaMinConnected)
			},
		})
	}
	return &watchdog{
		rules:  rules,
		firing: make(map[string]*ActiveRule),
	}
}

// evaluate runs every rule against w and returns the transition events
// (possibly none). Steady firing refreshes the active detail without
// emitting a new event.
func (d *watchdog) evaluate(now time.Time, w Window) []Event {
	var out []Event
	for _, r := range d.rules {
		firing, detail := r.Check(w)
		active := d.firing[r.Name]
		switch {
		case firing && active == nil:
			d.seq++
			d.alerts++
			d.firing[r.Name] = &ActiveRule{Rule: r.Name, Since: now, Detail: detail}
			out = append(out, Event{
				Seq: d.seq, Time: now, Rule: r.Name, Kind: "alert", Detail: detail,
			})
		case firing:
			active.Detail = detail
		case active != nil:
			delete(d.firing, r.Name)
			d.seq++
			out = append(out, Event{
				Seq: d.seq, Time: now, Rule: r.Name, Kind: "clear",
				Detail: "condition cleared (was: " + active.Detail + ")",
			})
		}
	}
	return out
}

func (d *watchdog) activeRules() []ActiveRule {
	out := make([]ActiveRule, 0, len(d.firing))
	for _, a := range d.firing {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Rule < out[j].Rule })
	return out
}

// eventLog is the bounded operational log: a ring of the newest Cap
// events plus a count of how many older ones were dropped.
type eventLog struct {
	ring    []Event
	next    int
	filled  int
	dropped uint64
}

func newEventLog(cap int) *eventLog {
	return &eventLog{ring: make([]Event, cap)}
}

func (l *eventLog) add(e Event) {
	if l.filled == len(l.ring) {
		l.dropped++
	} else {
		l.filled++
	}
	l.ring[l.next] = e
	l.next = (l.next + 1) % len(l.ring)
}

// list returns the retained events oldest-first plus the drop count.
func (l *eventLog) list() ([]Event, uint64) {
	out := make([]Event, 0, l.filled)
	start := l.next - l.filled
	for i := 0; i < l.filled; i++ {
		out = append(out, l.ring[(start+i+len(l.ring))%len(l.ring)])
	}
	return out, l.dropped
}
