package load

import (
	"math"
	"testing"
)

// Any recorded value comes back within 0.1%: three significant digits,
// from nanoseconds to ten seconds.
func TestHistPrecision(t *testing.T) {
	for _, v := range []int64{0, 1, 999, 2047, 2048, 4095, 123456, 4096000, 987654321, 10e9} {
		var h Hist
		h.Record(v)
		got := h.Quantile(0.5)
		if math.Abs(got-float64(v)) > float64(v)/1000+0.5 {
			t.Errorf("recorded %d, median %.1f", v, got)
		}
	}
	var h Hist
	for i := int64(1); i <= 100000; i++ {
		h.Record(i * 1000)
	}
	for _, q := range []float64{0.5, 0.99} {
		want := q * 100000 * 1000
		if got := h.Quantile(q); math.Abs(got-want) > want/500 {
			t.Errorf("q%.2f = %.0f, want about %.0f", q, got, want)
		}
	}
	if h.Count() != 100000 {
		t.Errorf("count %d", h.Count())
	}
	var sum Hist
	sum.Merge(&h)
	sum.Merge(&h)
	if sum.Count() != 200000 || sum.Quantile(0.5) != h.Quantile(0.5) {
		t.Errorf("merge: count %d median %.0f", sum.Count(), sum.Quantile(0.5))
	}
}

func TestValueRoundTrip(t *testing.T) {
	k := Key(42)
	v := Value(nil, k, 7)
	if seq, err := CheckValue(k, v); err != nil || seq != 7 {
		t.Fatalf("CheckValue = %d, %v", seq, err)
	}
	if _, err := CheckValue(Key(43), v); err == nil {
		t.Error("another key's value passed")
	}
	v[50] ^= 1
	if _, err := CheckValue(k, v); err == nil {
		t.Error("a damaged value passed")
	}
}

// A key has one writer: client c only overwrites ids congruent to c.
func TestStreamsPartitionWrites(t *testing.T) {
	m := Mix{ReadPct: 50, Records: 1000, Zipf: true}
	for c, s := range Streams(3, 2, 20000, m) {
		reads, writes := 0, 0
		for _, op := range s.Ops {
			switch op.Kind {
			case Write:
				writes++
				if int(op.ID)%2 != c || op.ID >= m.Records {
					t.Fatalf("client %d writes id %d", c, op.ID)
				}
			case Read:
				reads++
			}
		}
		if share := float64(reads) / float64(reads+writes); share < 0.48 || share > 0.52 {
			t.Errorf("client %d: read share %.3f, want 0.5", c, share)
		}
	}
}

// Rank 0 is the hottest, and the head is as heavy as theta 0.99 makes
// it: the top 1% of 100k keys draws roughly half the requests.
func TestZipfSkew(t *testing.T) {
	z := NewZipf(100000, 0.99)
	r := NewRand(1)
	counts := make([]int, 100000)
	const n = 500000
	for i := 0; i < n; i++ {
		counts[z.Next(r)]++
	}
	head := 0
	for _, c := range counts[:1000] {
		head += c
	}
	if counts[0] < counts[1] || counts[1] < counts[10] {
		t.Errorf("ranks 0, 1, 10 drew %d, %d, %d", counts[0], counts[1], counts[10])
	}
	if share := float64(head) / n; share < 0.4 || share > 0.7 {
		t.Errorf("top 1%% of keys drew %.2f of the requests", share)
	}
}
