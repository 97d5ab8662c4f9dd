package stats

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// populated returns a snapshot with every int64 field set to a distinct
// value, every histogram holding observations, and the buffer policy,
// degraded latch and a query shape filled in — the widest output every
// encoder can be asked for.
func populated() Snapshot {
	var s Snapshot
	n := int64(1000)
	v := reflect.ValueOf(&s).Elem()
	for i := 0; i < v.NumField(); i++ {
		layer := v.Field(i)
		if layer.Kind() != reflect.Struct {
			continue
		}
		for j := 0; j < layer.NumField(); j++ {
			n += 7
			switch p := layer.Field(j).Addr().Interface().(type) {
			case *int64:
				*p = n
			case *HistogramSnapshot:
				*p = HistogramSnapshot{Bounds: []int64{10, 20}, Counts: []int64{n, 2, 1}, Count: n + 3, Sum: 10 * n}
			}
		}
	}
	s.Buffer.Policy = "LRU"
	s.Fault.Degraded, s.Fault.DegradedReason = true, "device gone"
	s.Queries = &QuerySnapshot{Shapes: []QueryShapeSnapshot{{Shape: "SELECT ?", Count: 3}}, SlowDropped: 2}
	return s
}

// TestPrometheusOneHeaderPerFamily: a Prometheus text parser rejects a
// second HELP or TYPE line for the same family, so labeled series of one
// family must share one header.
func TestPrometheusOneHeaderPerFamily(t *testing.T) {
	var b strings.Builder
	if err := populated().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, line := range strings.Split(b.String(), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 || f[0] != "#" {
			continue
		}
		key := f[1] + " " + f[2]
		if seen[key] {
			t.Errorf("repeated %q", key)
		}
		seen[key] = true
	}
}

// TestEveryMetricHasOneRow: every ID indexes a whole row of its own,
// every int64 and histogram field of a Snapshot is declared by exactly
// one row of the metrics table, and every row is differenced by Sub
// according to its kind and appears in both exports.
func TestEveryMetricHasOneRow(t *testing.T) {
	series := map[string]int{}
	for id := range metrics {
		m := &metrics[id]
		hist := m.kind == histogramKind
		if m.name == "" || m.help == "" || (m.field != nil) == hist ||
			(m.hfield != nil) != hist || (m.bounds != nil) != hist {
			t.Errorf("ID %d indexes a zero or incomplete row: %q %v", id, m.name, m.kind)
			continue
		}
		key := m.name + "{" + m.label + "}"
		if prev, ok := series[key]; ok {
			t.Errorf("IDs %d and %d index the same row %s", prev, id, key)
		}
		series[key] = id
	}
	if t.Failed() {
		t.FailNow()
	}

	var s Snapshot
	rows := map[any]int{}
	for i := range metrics {
		if m := &metrics[i]; m.kind == histogramKind {
			rows[m.hfield(&s)]++
		} else {
			rows[m.field(&s)]++
		}
	}
	fields := 0
	v := reflect.ValueOf(&s).Elem()
	for i := 0; i < v.NumField(); i++ {
		layer := v.Field(i)
		if layer.Kind() != reflect.Struct {
			continue
		}
		for j := 0; j < layer.NumField(); j++ {
			p := layer.Field(j).Addr().Interface()
			switch p.(type) {
			case *int64, *HistogramSnapshot:
			default:
				continue
			}
			fields++
			if n := rows[p]; n != 1 {
				t.Errorf("%s.%s is declared by %d rows, want 1",
					v.Type().Field(i).Name, layer.Type().Field(j).Name, n)
			}
		}
	}
	if fields != len(metrics) {
		t.Errorf("%d rows for %d Snapshot fields", len(metrics), fields)
	}

	full := populated()
	var prom strings.Builder
	if err := full.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	promLines := strings.Split(prom.String(), "\n")
	text := full.Format()
	for i := range metrics {
		m := &metrics[i]
		if strings.HasSuffix(m.name, "_total") != (m.kind == counterKind) {
			t.Errorf("%s is a %v: only counter families end in _total", m.name, m.kind)
		}
		checkSub(t, m)
		series, value := m.name, int64(0)
		if m.kind == histogramKind {
			series, value = m.name+"_count", m.hfield(&full).Count
		} else {
			value = *m.field(&full)
		}
		found := false
		for _, line := range promLines {
			if strings.HasPrefix(line, series) && strings.Contains(line, m.label) &&
				strings.HasSuffix(line, fmt.Sprintf(" %d", value)) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s{%s} = %d missing from WritePrometheus", m.name, m.label, value)
		}
		if !strings.Contains(text, fmt.Sprintf("  %-24s %12d", m.text(), value)) {
			t.Errorf("%s (%q = %d) missing from Format", m.name, m.text(), value)
		}
	}
}

// checkSub differences a snapshot holding only m against a baseline
// below it and a baseline above it (a restarted registry).
func checkSub(t *testing.T, m *metric) {
	t.Helper()
	var cur, lower, higher Snapshot
	if m.kind == histogramKind {
		bounds := []int64{10, 20}
		*m.hfield(&cur) = HistogramSnapshot{Bounds: bounds, Counts: []int64{5, 5, 5}, Count: 15, Sum: 150}
		*m.hfield(&lower) = HistogramSnapshot{Bounds: bounds, Counts: []int64{1, 2, 3}, Count: 6, Sum: 60}
		*m.hfield(&higher) = HistogramSnapshot{Bounds: bounds, Counts: []int64{9, 9, 9}, Count: 27, Sum: 270}
		if d := cur.Sub(lower); m.hfield(&d).Count != 9 || m.hfield(&d).Sum != 90 {
			t.Errorf("%s: Sub over a lower baseline = %+v, want 9 observations summing 90", m.name, *m.hfield(&d))
		}
		if d := cur.Sub(higher); m.hfield(&d).Count != 15 {
			t.Errorf("%s: Sub over a restart = %+v, want the current 15 observations", m.name, *m.hfield(&d))
		}
		return
	}
	*m.field(&cur), *m.field(&lower), *m.field(&higher) = 15, 10, 20
	wantLower, wantHigher := int64(5), int64(15) // counter: difference, or current after a restart
	if m.kind == gaugeKind {
		wantLower = 15 // gauge: the current level
	}
	if d := cur.Sub(lower); *m.field(&d) != wantLower {
		t.Errorf("%s (%v): Sub over a lower baseline = %d, want %d", m.name, m.kind, *m.field(&d), wantLower)
	}
	if d := cur.Sub(higher); *m.field(&d) != wantHigher {
		t.Errorf("%s (%v): Sub over a higher baseline = %d, want %d", m.name, m.kind, *m.field(&d), wantHigher)
	}
}
