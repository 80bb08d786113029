package server

import (
	"fmt"
	"sync"
	"testing"

	"logicallog/internal/core"
	"logicallog/internal/obs"
)

// BenchmarkServerGet times one Get through the whole serving path on
// loopback TCP — client encode, frame, admission, KV backend, response frame,
// client demux.  conns=1 and conns=2 keep one request outstanding on each
// connection, as bench's kv-serve clients do; depth=8 keeps eight requests
// outstanding on one pipelined connection, so the server's reader, handlers
// and response writes overlap.  ns/op is wall time per Get across all
// connections; allocs/op counts client and server together.
func BenchmarkServerGet(b *testing.B) {
	const keys, valSize = 1024, 128
	cases := []struct {
		name         string
		conns, depth int
	}{
		{"conns=1", 1, 1},
		{"conns=2", 2, 1},
		{"conns=1,depth=8", 1, 8},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			eng, err := core.New(core.DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			_, first, addr := startServer(b, Config{Backend: NewKV(eng), Obs: obs.NewRegistry()})
			ks := make([][]byte, keys)
			for i := range ks {
				ks[i] = []byte(fmt.Sprintf("key%05d", i))
				if err := first.Put(ks[i], make([]byte, valSize)); err != nil {
					b.Fatal(err)
				}
			}
			clients := []*Client{first}
			for len(clients) < c.conns {
				cl, err := Dial(addr)
				if err != nil {
					b.Fatal(err)
				}
				b.Cleanup(func() { _ = cl.Close() })
				clients = append(clients, cl)
			}
			callers := c.conns * c.depth
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for g := 0; g < callers; g++ {
				cl := clients[g%c.conns]
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := g; i < b.N; i += callers {
						if v, found, err := cl.Get(ks[i%keys]); err != nil || !found || len(v) != valSize {
							b.Errorf("Get: %d bytes, found=%v, %v", len(v), found, err)
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}
