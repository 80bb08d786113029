package wal

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"logicallog/internal/op"
)

// benchLog builds a log with n operation records carrying valSize-byte
// values (the worst case for decoder allocation).
func benchLog(b *testing.B, n, valSize int) *Log {
	b.Helper()
	l, err := New(NewMemDevice())
	if err != nil {
		b.Fatal(err)
	}
	val := make([]byte, valSize)
	for i := 0; i < n; i++ {
		x := op.ObjectID(fmt.Sprintf("obj%04d", i%64))
		if _, err := l.AppendOp(op.NewPhysicalWrite(x, val)); err != nil {
			b.Fatal(err)
		}
	}
	if err := l.Force(); err != nil {
		b.Fatal(err)
	}
	return l
}

// BenchmarkWALScan measures the redo scan's decode path.  Run with -benchmem:
// the aliased decoder keeps per-record allocations flat in the value size.
func BenchmarkWALScan(b *testing.B) {
	for _, valSize := range []int{64, 4 << 10} {
		b.Run(fmt.Sprintf("val=%dB", valSize), func(b *testing.B) {
			l := benchLog(b, 2048, valSize)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sc, err := l.Scan(0)
				if err != nil {
					b.Fatal(err)
				}
				records := 0
				for {
					rec, err := sc.Next()
					if errors.Is(err, io.EOF) {
						break
					}
					if err != nil {
						b.Fatal(err)
					}
					if rec.Type == RecOperation {
						records++
					}
				}
				if records != 2048 {
					b.Fatalf("scanned %d records, want 2048", records)
				}
			}
		})
	}
}

// BenchmarkWALAppend measures the encode half of the log: logical-shaped
// operation records (the logical mix's XOR and copy forms) framed into the
// tail by Append, with no force in the timed loop.  Every 1 024 appends the
// tail is forced, untimed, to a device that keeps nothing, so the tail stays
// at its working size.  Run with -benchmem: encoding allocates nothing.
func BenchmarkWALAppend(b *testing.B) {
	l, err := New(discardDevice{NewMemDevice()})
	if err != nil {
		b.Fatal(err)
	}
	recs := []*Record{
		NewOpRecord(op.NewLogical(op.FuncXor, op.EncodeParams([]byte("obj0012"), []byte("obj0007")),
			[]op.ObjectID{"obj0007", "obj0012"}, []op.ObjectID{"obj0012"})),
		NewOpRecord(op.NewLogical(op.FuncCopy, []byte("obj0031"), []op.ObjectID{"obj0044"}, []op.ObjectID{"obj0031"})),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Append(recs[i%len(recs)]); err != nil {
			b.Fatal(err)
		}
		if i%1024 == 1023 {
			b.StopTimer()
			if err := l.Force(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
}

// slowDevice models a device with fsync-like append latency, the regime
// group commit exists for.
type slowDevice struct {
	*MemDevice
	delay time.Duration
}

func (d *slowDevice) Append(p []byte) error {
	time.Sleep(d.delay)
	return d.MemDevice.Append(p)
}

// BenchmarkWALGroupCommit measures concurrent committers forcing a log on a
// device with 20µs append latency.  Each iteration appends one record per
// committer and forces it; group commit coalesces the device writes, which
// the Forces/ForcesCoalesced stats expose.
func BenchmarkWALGroupCommit(b *testing.B) {
	for _, committers := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("committers=%d", committers), func(b *testing.B) {
			l, err := New(&slowDevice{MemDevice: NewMemDevice(), delay: 20 * time.Microsecond})
			if err != nil {
				b.Fatal(err)
			}
			val := make([]byte, 128)
			b.ResetTimer()
			var wg sync.WaitGroup
			for c := 0; c < committers; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					x := op.ObjectID(fmt.Sprintf("c%02d", c))
					for i := 0; i < b.N; i++ {
						lsn, err := l.AppendOp(op.NewPhysicalWrite(x, val))
						if err != nil {
							b.Error(err)
							return
						}
						if err := l.ForceThrough(lsn); err != nil {
							b.Error(err)
							return
						}
					}
				}(c)
			}
			wg.Wait()
			b.StopTimer()
			st := l.Stats()
			total := st.Forces + st.ForcesCoalesced
			if total > 0 {
				b.ReportMetric(float64(st.ForcesCoalesced)/float64(total), "coalesced-frac")
			}
			b.ReportMetric(float64(st.Forces), "device-forces")
		})
	}
}
