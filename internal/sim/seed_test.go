package sim

import (
	"flag"
	"hash/fnv"
	"math/rand"
	"os"
	"sync"
	"testing"
	"time"

	"logicallog/internal/workload"
)

// seedFlag pins every seed-ranging crash test in this package to a single
// seed, for reproducing a failure reported as "seed N: ...":
//
//	go test ./internal/sim -run TestCrashRecoveryMatrix -seed N
var seedFlag = flag.Int64("seed", 0, "pin randomized crash tests to this single seed (0 = full range)")

// seeds returns the half-open range [lo, hi) — or only the pinned seed when
// -seed is set.
func seeds(t *testing.T, lo, hi int64) []int64 {
	t.Helper()
	if *seedFlag != 0 {
		t.Logf("seed range [%d,%d) pinned to -seed=%d", lo, hi, *seedFlag)
		return []int64{*seedFlag}
	}
	out := make([]int64, 0, hi-lo)
	for s := lo; s < hi; s++ {
		out = append(out, s)
	}
	return out
}

// pinnedSeed returns def, or the -seed override when set.
func pinnedSeed(t *testing.T, def int64) int64 {
	t.Helper()
	if *seedFlag != 0 {
		t.Logf("seed %d pinned to -seed=%d", def, *seedFlag)
		return *seedFlag
	}
	return def
}

// exploreSeedFlag pins the sampled explorer sweeps (see sweepStride) to the
// seed a failing run printed.
var exploreSeedFlag = flag.Int64("explore.seed", 0, "seed of the sampled explorer sweeps (0 = drawn from the clock)")

// sampleSeed is the seed every sampled sweep of this run derives its
// boundary offset from.
var sampleSeed = sync.OnceValue(func() int64 {
	if *exploreSeedFlag != 0 {
		return *exploreSeedFlag
	}
	return 1 + time.Now().UnixNano()%1_000_000
})

// sampleFactor is how many times sparser than its exhaustive stride a
// sampled explorer sweep steps through the boundaries.
const sampleFactor = 16

// exploreFull reports whether LL_EXPLORE=full asks for the exhaustive
// explorer sweeps (the crash-explore CI job sets it).  Otherwise each sweep
// is a seeded sample, so tier-1 runs every explorer in seconds and
// successive runs reach different schedules.
func exploreFull() bool { return os.Getenv("LL_EXPLORE") == "full" }

// sampleRand returns the sampling source of one sweep: the run's seed mixed
// with the test's name, so sibling sweeps sample differently.
func sampleRand(t *testing.T) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(t.Name()))
	return rand.New(rand.NewSource(sampleSeed() ^ int64(h.Sum64())))
}

// sweepStride returns the boundary stride of an explorer sweep whose
// exhaustive form steps by full: that stride under LL_EXPLORE=full, else
// every full*sampleFactor-th boundary from a seeded offset.
func sweepStride(t *testing.T, full int) Stride {
	t.Helper()
	if exploreFull() {
		return Stride{Every: full}
	}
	every := full * sampleFactor
	s := Stride{Every: every, Offset: sampleRand(t).Intn(every)}
	t.Logf("sampled sweep: every %d-th boundary from %d; repeat with -explore.seed %d, LL_EXPLORE=full for the exhaustive sweep",
		s.Every, s.Offset, sampleSeed())
	return s
}

// sweepMixes returns the scenario mixes a mix sweep drives: every built-in
// under LL_EXPLORE=full, else one drawn like the stride's offset.
func sweepMixes(t *testing.T) []string {
	t.Helper()
	mixes := workload.MixNames()
	if exploreFull() {
		return mixes
	}
	return []string{mixes[sampleRand(t).Intn(len(mixes))]}
}
