package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// Snapshot is a point-in-time copy of everything the tracer holds:
// the surviving ring records (oldest first), the slow-op trees, and
// the occupancy accounting. Snapshots are plain data — safe to hold,
// serialize, or export after the tracer moves on.
type Snapshot struct {
	Capacity        int          `json:"capacity"`
	Recorded        uint64       `json:"recorded"`
	Occupancy       int          `json:"occupancy"`
	Dropped         uint64       `json:"dropped"`
	SlowThresholdNs int64        `json:"slow_threshold_ns"`
	Spans           []SpanRecord `json:"spans"`
	Slow            []Tree       `json:"slow,omitempty"`
	SlowEvicted     int64        `json:"slow_evicted,omitempty"`
}

// Snapshot captures the tracer's current state. On nil it returns a
// zero Snapshot.
func (t *Tracer) Snapshot() Snapshot {
	if t == nil {
		return Snapshot{}
	}
	spans, recorded := t.ring.snapshot()
	slow, evicted := t.slow.snapshot()
	occ := len(spans)
	var dropped uint64
	if recorded > uint64(len(t.ring.slots)) {
		dropped = recorded - uint64(len(t.ring.slots))
	}
	return Snapshot{
		Capacity:        len(t.ring.slots),
		Recorded:        recorded,
		Occupancy:       occ,
		Dropped:         dropped,
		SlowThresholdNs: t.slow.threshold,
		Spans:           spans,
		Slow:            slow,
		SlowEvicted:     evicted,
	}
}

// Trees regroups the snapshot's flat span list into complete operation
// trees, ordered by root start time. Trees whose root was already
// evicted from the ring are skipped — only whole operations render.
func (s Snapshot) Trees() []Tree {
	byRoot := map[uint64]*Tree{}
	var order []uint64
	for _, r := range s.Spans {
		if r.ID == r.Root {
			byRoot[r.ID] = &Tree{Root: r}
			order = append(order, r.ID)
		}
	}
	for _, r := range s.Spans {
		if r.ID == r.Root {
			continue
		}
		if t, ok := byRoot[r.Root]; ok {
			t.Spans = append(t.Spans, r)
		}
	}
	out := make([]Tree, 0, len(order))
	for _, id := range order {
		out = append(out, *byRoot[id])
	}
	return out
}

// WriteJSON writes the raw snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// chromeEvent is one complete ("ph":"X") event in Chrome's trace_event
// format; load the output at chrome://tracing or ui.perfetto.dev.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  uint64         `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChrome exports the ring's spans as Chrome trace_event JSON.
// Each operation (root span) is its own thread lane; group-commit
// leader/follower handoff shows in the batch/leader args.
func (s Snapshot) WriteChrome(w io.Writer) error {
	events := make([]chromeEvent, 0, len(s.Spans))
	for _, r := range s.Spans {
		args := map[string]any{"id": r.ID, "root": r.Root}
		if r.Parent != 0 {
			args["parent"] = r.Parent
		}
		if r.Page != 0 {
			args["page"] = r.Page
		}
		if r.Txn != 0 {
			args["txn"] = r.Txn
		}
		if r.Batch != 0 {
			args["batch"] = r.Batch
			args["leader"] = r.Leader
		}
		if r.Bucket >= 0 {
			args["bucket"] = r.Bucket
		}
		if r.Err {
			args["err"] = true
		}
		events = append(events, chromeEvent{
			Name: r.Layer + "." + r.Op,
			Cat:  r.Layer,
			Ph:   "X",
			Ts:   float64(r.Start) / 1e3,
			Dur:  float64(r.Dur) / 1e3,
			Pid:  1,
			Tid:  r.Root,
			Args: args,
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events})
}

// WriteText renders the snapshot's complete trees as an indented,
// human-readable listing (the `.trace dump` format).
func (s Snapshot) WriteText(w io.Writer) error {
	trees := s.Trees()
	fmt.Fprintf(w, "trace: %d/%d spans held, %d recorded, %d dropped, %d trees complete\n",
		s.Occupancy, s.Capacity, s.Recorded, s.Dropped, len(trees))
	for _, t := range trees {
		writeTree(w, t)
	}
	return nil
}

// WriteSlow renders the slow-op log, worst first.
func (s Snapshot) WriteSlow(w io.Writer) error {
	fmt.Fprintf(w, "slow ops (threshold %v): %d kept, %d evicted\n",
		time.Duration(s.SlowThresholdNs), len(s.Slow), s.SlowEvicted)
	for _, t := range s.Slow {
		writeTree(w, t)
	}
	return nil
}

func writeTree(w io.Writer, t Tree) {
	fmt.Fprintf(w, "%s\n", formatRecord(t.Root, 0))
	// Spans arrive in completion order (children before parents); IDs
	// are assigned at Start, so ID order is start order — parents first.
	spans := append([]SpanRecord(nil), t.Spans...)
	sort.Slice(spans, func(i, j int) bool { return spans[i].ID < spans[j].ID })
	depth := map[uint64]int{t.Root.ID: 0}
	for _, r := range spans {
		d, ok := depth[r.Parent]
		if !ok {
			d = 0 // parent retained neither in tree nor ring; flatten
		}
		depth[r.ID] = d + 1
		fmt.Fprintf(w, "%s\n", formatRecord(r, d+1))
	}
	if t.Dropped > 0 {
		fmt.Fprintf(w, "  ... %d more spans not retained\n", t.Dropped)
	}
}

// formatRecord renders one span line: indent, layer.op, duration, and
// whichever attributes are set.
func formatRecord(r SpanRecord, depth int) string {
	s := ""
	for i := 0; i < depth; i++ {
		s += "  "
	}
	s += fmt.Sprintf("%s.%s %v", r.Layer, r.Op, time.Duration(r.Dur))
	if r.Page != 0 {
		s += fmt.Sprintf(" page=%d", r.Page)
	}
	if r.Txn != 0 {
		s += fmt.Sprintf(" txn=%d", r.Txn)
	}
	if r.Batch != 0 {
		s += fmt.Sprintf(" batch=%d leader=%d", r.Batch, r.Leader)
	}
	if r.Bucket >= 0 {
		s += fmt.Sprintf(" bucket=%d", r.Bucket)
	}
	if r.Err {
		s += " err"
	}
	return s
}
