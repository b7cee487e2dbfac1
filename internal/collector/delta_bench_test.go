package collector

import (
	"fmt"
	"testing"
)

// benchDeltaPair is a bulk day and its churned successor — roughly
// 10% of routes withdrawn/re-tagged/flapped, the fixture scale the
// delta codec is built for.
func benchDeltaPair(n int) (base, next *Snapshot) {
	base = bulkSnapshot(n)
	next = churnSnapshot(base, "2021-10-05", 1)
	return base, next
}

func BenchmarkSnapshotDeltaEncode(b *testing.B) {
	base, next := benchDeltaPair(50000)
	b.ReportAllocs()
	b.ResetTimer()
	var buf []byte
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = encodeDelta(base, next)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(buf)))
	b.ReportMetric(float64(len(buf))/float64(len(next.Routes)), "bytes/route")
}

func BenchmarkSnapshotDeltaApply(b *testing.B) {
	base, next := benchDeltaPair(50000)
	delta, err := encodeDelta(base, next)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(delta)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := applyDelta(base, delta)
		if err != nil {
			b.Fatal(err)
		}
		if len(s.Routes) != len(next.Routes) {
			b.Fatal("route count diverged")
		}
	}
}

// BenchmarkSnapshotDeltaChainSize encodes a two-week churned chain
// and reports its storage footprint next to the full binary files it
// replaces — the chain/full ratio is the codec's reason to exist.
func BenchmarkSnapshotDeltaChainSize(b *testing.B) {
	const days = 14
	series := []*Snapshot{bulkSnapshot(20000)}
	fullBytes := len(appendBinarySnapshot(nil, series[0]))
	for d := 1; d < days; d++ {
		next := churnSnapshot(series[d-1], fmt.Sprintf("2021-10-%02d", 4+d), int64(d))
		fullBytes += len(appendBinarySnapshot(nil, next))
		series = append(series, next)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var chainBytes int
	for i := 0; i < b.N; i++ {
		enc, err := NewDeltaEncoder(series[0])
		if err != nil {
			b.Fatal(err)
		}
		chainBytes = len(appendBinarySnapshot(nil, series[0]))
		for d := 1; d < days; d++ {
			buf, err := enc.Encode(series[d])
			if err != nil {
				b.Fatal(err)
			}
			chainBytes += len(buf)
		}
	}
	b.ReportMetric(float64(chainBytes)/float64(fullBytes), "chain/full-bytes")
	b.ReportMetric(float64(chainBytes)/float64(days), "bytes/day")
}
