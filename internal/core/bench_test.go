package core_test

import (
	"fmt"
	"runtime"
	"testing"

	. "logicallog/internal/core"
	"logicallog/internal/op"
)

// BenchmarkFlushAll times FlushAll draining a backlog of blind 128-byte
// writes to distinct keys on a memory log device: every write is its own
// minimal write-graph node, so the drain is one install per write and
// ns/install is the cost of choosing and installing one node.  It stays
// flat as the backlog grows when that cost is proportional to the node, not
// to the graph.  The backlog is forced before the drain, as a committed
// workload's is, so no install pays a device write for the write-ahead
// rule and the timing is the install path's own.
func BenchmarkFlushAll(b *testing.B) {
	val := make([]byte, 128)
	for _, n := range []int{1000, 4000, 16000} {
		b.Run(fmt.Sprintf("writes=%d", n), func(b *testing.B) {
			var installs int64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				eng, err := New(DefaultOptions())
				if err != nil {
					b.Fatal(err)
				}
				for k := 0; k < n; k++ {
					if err := eng.Execute(op.NewPhysicalWrite(op.ObjectID(fmt.Sprintf("key%06d", k)), val)); err != nil {
						b.Fatal(err)
					}
				}
				if err := eng.Log().Force(); err != nil {
					b.Fatal(err)
				}
				before := eng.Stats().Cache.Installs
				runtime.GC() // the drain pays for its own garbage, not the set-up's
				b.StartTimer()
				if err := eng.FlushAll(); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				installs += eng.Stats().Cache.Installs - before
			}
			if installs != int64(n*b.N) {
				b.Fatalf("%d installs for %d writes, want one per write", installs, n*b.N)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(installs), "ns/install")
		})
	}
}
