package obs

import (
	"fmt"
	"io"
	"math"
	"testing"
)

// benchPoint builds a registry shaped like one served sweep point's
// child: 16 rank tracks, 16 progress tracks and 32 link tracks holding
// 2048 trace records (spans recorded at their end, so start times run
// out of order within a track), 256 labelled counters, 64 gauges and 32
// latency histograms.
func benchPoint() *Registry {
	r := New()
	for i := 0; i < 256; i++ {
		r.Counter(fmt.Sprintf("armci/op.count{op=get,rank=%d}", i)).Add(int64(i * 7))
	}
	for i := 0; i < 64; i++ {
		r.Gauge(fmt.Sprintf("pami/ctx.queue_max{rank=%d}", i)).SetMax(int64(i))
	}
	for i := 0; i < 32; i++ {
		h := r.Histogram(fmt.Sprintf("armci/op.latency_ns{op=get,rank=%d}", i), DefaultLatencyBounds)
		for v := int64(0); v < 64; v++ {
			h.Observe(v * v * 97)
		}
	}
	ranks := make([]string, 16)
	links := make([]string, 32)
	for i := range ranks {
		ranks[i] = fmt.Sprintf("rank%d", i)
	}
	for i := range links {
		links[i] = fmt.Sprintf("link%d+x", i)
	}
	for i := int64(0); i < 512; i++ {
		rank := ranks[i%16]
		r.Span(TrackRank, rank, "get", 1000+i*731, 1000+i*731+2500)
		r.SpanArg(TrackLink, links[i%32], "xfer", "net", 1200+i*731, 1200+i*731+300, 512)
		r.Instant(TrackProgress, "async"+rank[4:], "wakeup", 900+i*731)
		r.Span(TrackRank, rank, "armci_get", 990+i*731, 1000+i*731+2600)
	}
	return r
}

var benchSink int

// BenchmarkTraceStreamerEmit encodes one point's trace records, metadata
// lines included, as the serving layer's run event log does.
func BenchmarkTraceStreamerEmit(b *testing.B) {
	reg := benchPoint()
	b.ReportAllocs()
	b.ResetTimer()
	var buf []byte
	for i := 0; i < b.N; i++ {
		buf, benchSink, _ = NewTraceStreamer().AppendLines(buf[:0], reg, math.MaxInt)
	}
}

// BenchmarkSnapshotJSON encodes one point's full metric state.
func BenchmarkSnapshotJSON(b *testing.B) {
	reg := benchPoint()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := reg.SnapshotJSON(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMerge folds one point's child registry into a fresh parent,
// as the sweep engine does after every point.
func BenchmarkMerge(b *testing.B) {
	child := benchPoint()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		parent := New()
		parent.Merge(child)
		benchSink = len(parent.tracks)
	}
}
