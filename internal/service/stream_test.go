package service

import (
	"math"
	"math/rand"
	"testing"
)

// streamSeeds are the seeds the stream is held against: math/rand's
// special cases — 0, which it replaces by 89482311, and seeds that are
// 0 modulo 2³¹−1 — the extremes of int64, their neighbours, and a
// spread of the seeds selectionSeed derives.
func streamSeeds() []int64 {
	seeds := []int64{0, 1, -1, 89482311, -89482311, math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1}
	for _, m := range []int64{1, 2, 3, 1 << 20, 1<<31 + 3, math.MaxInt64 / lehmerM} {
		for _, d := range []int64{-1, 0, 1} {
			seeds = append(seeds, m*lehmerM+d, -m*lehmerM+d)
		}
	}
	r := rand.New(rand.NewSource(5))
	for len(seeds) < 1000 {
		seeds = append(seeds, selectionSeed(r.Int63(), "agent", r.Uint64()), r.Int63n(1<<40)-1<<39)
	}
	return seeds
}

// TestSelectionStreamMatchesMathRand holds the stream against the
// generator it replaces on every seed in streamSeeds, past the draw
// where it hands off to a real source.
func TestSelectionStreamMatchesMathRand(t *testing.T) {
	const draws = 400
	for _, seed := range streamSeeds() {
		want := rand.New(rand.NewSource(seed))
		got := newSelectionStream(seed)
		for d := 1; d <= draws; d++ {
			if g, w := got.Float64(), want.Float64(); g != w {
				t.Fatalf("seed %d draw %d: %v, math/rand %v", seed, d, g, w)
			}
		}
	}
}

// BenchmarkSelectionStream is what a ranked read pays for randomness:
// one seed and five draws.
func BenchmarkSelectionStream(b *testing.B) {
	b.ReportAllocs()
	var sum float64
	for i := 0; i < b.N; i++ {
		s := newSelectionStream(int64(i) * 7919)
		for range 5 {
			sum += s.Float64()
		}
	}
	if sum < 0 {
		b.Fatal(sum)
	}
}
