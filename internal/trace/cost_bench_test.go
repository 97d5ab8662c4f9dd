package trace

import "testing"

func BenchmarkSpan(b *testing.B) {
	t := New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := t.Start(nil, LayerAccess, "get")
		sp.End()
	}
}

func BenchmarkSpanNested(b *testing.B) {
	t := New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := t.Start(nil, LayerAccess, "get")
		c := t.Start(sp, LayerBTree, "get")
		c.End()
		sp.End()
	}
}

func BenchmarkSpanNil(b *testing.B) {
	var t *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := t.Start(nil, LayerAccess, "get")
		sp.End()
	}
}
