package obs

import (
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Errorf("counter = %d, want 42", got)
	}
	g := r.Gauge("g")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Errorf("gauge = %d, want 4", got)
	}
	// Get-or-create returns the same handle.
	if r.Counter("c") != c || r.Gauge("g") != g {
		t.Error("registry did not return the existing handles")
	}
}

func TestNilRegistryAndHandles(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("x")
	h := r.Histogram("x")
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must hand out nil handles")
	}
	// Every method on nil handles is a no-op, not a panic.
	c.Inc()
	c.Add(5)
	g.Set(5)
	g.Add(5)
	h.Observe(5)
	h.Since(time.Time{})
	if c.Value() != 0 || g.Value() != 0 || h.Snapshot().Count != 0 {
		t.Error("nil handles must read as zero")
	}
	if h.Enabled() {
		t.Error("nil histogram must report disabled")
	}
	r.Reset()
	if names := r.Names(); names != nil {
		t.Errorf("nil registry Names = %v", names)
	}
	s := r.Snapshot()
	if len(s.Counters) != 0 || len(s.Gauges) != 0 || len(s.Histograms) != 0 {
		t.Errorf("nil registry snapshot = %+v", s)
	}
}

func TestConcurrentCountersExact(t *testing.T) {
	r := NewRegistry()
	const goroutines, perG = 8, 10000
	var wg sync.WaitGroup
	// Half the goroutines hammer one shared counter; the rest take snapshots
	// concurrently (shaken out under -race).
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("shared")
			h := r.Histogram("sizes")
			for j := 0; j < perG; j++ {
				c.Inc()
				h.Observe(int64(j))
				if j%1000 == 0 {
					_ = r.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != goroutines*perG {
		t.Errorf("shared counter = %d, want %d", got, goroutines*perG)
	}
	if got := r.Histogram("sizes").Snapshot().Count; got != goroutines*perG {
		t.Errorf("histogram count = %d, want %d", got, goroutines*perG)
	}
}

func TestRegistryReset(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h")
	c.Add(3)
	g.Set(9)
	h.Observe(100)
	r.Reset()
	if c.Value() != 0 || g.Value() != 0 {
		t.Error("reset must zero counters and gauges")
	}
	hs := h.Snapshot()
	if hs.Count != 0 || hs.Sum != 0 || hs.Min != 0 || hs.Max != 0 || len(hs.Buckets) != 0 {
		t.Errorf("reset histogram snapshot = %+v", hs)
	}
	// Handles stay live after reset.
	c.Inc()
	if c.Value() != 1 {
		t.Error("counter handle dead after reset")
	}
}

func TestSetCounterAndSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("absorbed").Add(123)
	r.Gauge("gg").Set(-5)
	r.Histogram("hh").Observe(3)
	s := r.Snapshot()
	if s.Counters["absorbed"] != 123 || s.Gauges["gg"] != -5 || s.Histograms["hh"].Count != 1 {
		t.Errorf("snapshot = %+v", s)
	}
	want := []string{"counter:absorbed", "gauge:gg", "histogram:hh"}
	if got := r.Names(); !reflect.DeepEqual(got, want) {
		t.Errorf("Names = %v, want %v", got, want)
	}
}
