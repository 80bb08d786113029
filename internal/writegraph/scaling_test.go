package writegraph

import (
	"fmt"
	"math/rand"
	"testing"

	"logicallog/internal/op"
	"logicallog/internal/workload"
)

// blindWrites returns n blind writes over 10 000 keys drawn zipfian.
func blindWrites(n int) []*op.Operation {
	rng := rand.New(rand.NewSource(3))
	zipf := rand.NewZipf(rng, 1.1, 1, 9999)
	ops := make([]*op.Operation, n)
	for i := range ops {
		ops[i] = op.NewPhysicalWrite(op.ObjectID(fmt.Sprintf("kv/k%06d", zipf.Uint64())), nil)
	}
	return workload.WithLSNs(ops)
}

// logicalOps returns the first n steps of the benchmark's logical mix.
func logicalOps(t testing.TB, seed int64, n int) []*op.Operation {
	t.Helper()
	g, err := workload.NewGenerator(workload.Spec{Seed: seed, Objects: 256, ObjectSize: 4096,
		LogicalAPct: 30, LogicalBPct: 30, PhysioPct: 20, DeletePct: 2})
	if err != nil {
		t.Fatal(err)
	}
	g.Bootstrap()
	ops := make([]*op.Operation, n)
	for i := range ops {
		ops[i] = g.Next()
	}
	return workload.WithLSNs(ops)
}

// TestAddOpWorkFlatInBacklog: the nodes and edges one AddOp examines do
// not grow with the uninstalled backlog.  A scan over every node or object
// per operation would make the 16 000-op mean eight times the 2 000-op one.
func TestAddOpWorkFlatInBacklog(t *testing.T) {
	for _, policy := range []Policy{PolicyW, PolicyRW} {
		mean := func(n int) float64 {
			wg := New(policy)
			for _, o := range blindWrites(n) {
				if _, err := wg.AddOp(o); err != nil {
					t.Fatal(err)
				}
			}
			return float64(wg.visits) / float64(n)
		}
		small, large := mean(2000), mean(16000)
		t.Logf("%v: %.2f visits/op at a 2 000-op backlog, %.2f at 16 000", policy, small, large)
		if large > 1.25*small+1 {
			t.Errorf("%v: visits per AddOp grew from %.2f to %.2f with the backlog", policy, small, large)
		}
	}
}

// TestAddOpNeverVisitsWholeGraph: on the logical mix, where multi-object
// operations add edges against the maintained order and close cycles, no
// single AddOp examines as many nodes and edges as the graph holds.
func TestAddOpNeverVisitsWholeGraph(t *testing.T) {
	for _, policy := range []Policy{PolicyW, PolicyRW} {
		wg := New(policy)
		worst := 0.0
		for _, o := range logicalOps(t, 1, 8000) {
			before, size := wg.visits, wg.Len()+wg.edgeCount()
			if _, err := wg.AddOp(o); err != nil {
				t.Fatal(err)
			}
			if size < 64 {
				continue
			}
			visited := wg.visits - before
			if visited >= size {
				t.Fatalf("%v: AddOp(%s) visited %d with %d nodes and edges in the graph", policy, o, visited, size)
			}
			if r := float64(visited) / float64(size); r > worst {
				worst = r
			}
		}
		t.Logf("%v: worst AddOp visited %.1f%% of the graph; %d nodes, %d collapses", policy, 100*worst, wg.Len(), wg.CycleCollapses())
	}
}

// TestAddOpLogicalMeanVisits bounds the mean work per AddOp on the 8 000-op
// logical traces under rW.  Repairing the order by searching backward only
// from the new edges' tails keeps it near 40; a search that also walks
// forward from their heads averages over 110.  The order's gaps must also
// last: relabelling the whole list stays rare.
func TestAddOpLogicalMeanVisits(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		ops := logicalOps(t, seed, 8000)
		wg := New(PolicyRW)
		for _, o := range ops {
			if _, err := wg.AddOp(o); err != nil {
				t.Fatal(err)
			}
		}
		mean := float64(wg.visits) / float64(len(ops))
		t.Logf("seed %d: %.1f visits per AddOp, %d relabels", seed, mean, wg.relabels)
		if mean > 50 {
			t.Errorf("seed %d: %.1f visits per AddOp, want at most 50", seed, mean)
		}
		if wg.relabels > 9 {
			t.Errorf("seed %d: %d relabels, want single digits", seed, wg.relabels)
		}
	}
}

func BenchmarkAddOpLogicalBacklog(b *testing.B) {
	ops := logicalOps(b, 1, 8000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wg := New(PolicyRW)
		for _, o := range ops {
			if _, err := wg.AddOp(o); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ops)), "ns/addop")
}
