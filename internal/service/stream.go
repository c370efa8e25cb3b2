package service

import "math/rand"

// math/rand's source is an additive lagged-Fibonacci generator over rngLen
// words: a draw adds the words rngTap apart and stores the sum. Seeding
// fills every word from a Lehmer generator, x ← 48271·x mod (2³¹−1).
const (
	rngLen  = 607
	rngTap  = 273
	lehmerA = 48271
	lehmerM = 1<<31 - 1
)

// rngPow[n] is lehmerA^n mod lehmerM: the seeder's nth value after x₀ is
// x₀·rngPow[n]. Seeded word i takes values 21+3i, 22+3i and 23+3i.
var rngPow [3*rngLen + 21]uint64

// rngCooked is the constant math/rand XORs into each seeded word.
var rngCooked [rngLen]uint64

func init() {
	rngPow[0] = 1
	for n := 1; n < len(rngPow); n++ {
		rngPow[n] = rngPow[n-1] * lehmerA % lehmerM
	}
	// The first rngLen draws of a source each store their output in a
	// different word. Undoing them, last first — each stored word less
	// the word it was added to — gives back the seeded state of seed 1,
	// and the Lehmer part of each word leaves what was XORed into it.
	src := rand.NewSource(1).(rand.Source64)
	var vec [rngLen]uint64
	for k := 1; k <= rngLen; k++ {
		vec[rngFeed(k)] = src.Uint64()
	}
	for k := rngLen; k >= 1; k-- {
		vec[rngFeed(k)] -= vec[rngLen-k]
	}
	for i, w := range vec {
		rngCooked[i] = w ^ lehmerWord(1, i)
	}
}

// rngFeed is the word draw k (from 1) of a freshly seeded source stores
// its output in, for k ≤ rngLen; the word it adds is rngLen−k.
func rngFeed(k int) int { return (2*rngLen - rngTap - k) % rngLen }

// lehmerWord is seeded word i's Lehmer part for a seeder started at x0.
func lehmerWord(x0 uint64, i int) uint64 {
	x := func(n int) uint64 { return x0 * rngPow[n] % lehmerM }
	return x(21+3*i)<<40 ^ x(22+3*i)<<20 ^ x(23+3*i)
}

// selectionStream is rand.New(rand.NewSource(seed)).Float64's stream,
// computed from the seed word by word instead of seeding all rngLen words
// up front: a ranked read takes a handful of draws. Draw k ≤ rngTap reads
// only seeded words; the next would read one a draw has stored, so from
// there the stream is a real source advanced past the draws already made.
type selectionStream struct {
	seed  int64
	x0    uint64 // the seeder's start; 0 before the stream is seeded
	drawn int
	rng   *rand.Rand
}

// newSelectionStream seeds a stream as rand.NewSource(seed) would be.
func newSelectionStream(seed int64) selectionStream {
	x := seed % lehmerM
	if x < 0 {
		x += lehmerM
	}
	if x == 0 {
		x = 89482311
	}
	return selectionStream{seed: seed, x0: uint64(x)}
}

// Float64 is rand.Rand.Float64: a draw that rounds up to 1 is redrawn.
func (s *selectionStream) Float64() float64 {
	for {
		if f := float64(s.int63()) / (1 << 63); f < 1 {
			return f
		}
	}
}

// int63 is the source's next Int63.
func (s *selectionStream) int63() int64 {
	if s.rng == nil && s.drawn == rngTap {
		s.rng = rand.New(rand.NewSource(s.seed))
		for range rngTap {
			s.rng.Int63()
		}
	}
	if s.rng != nil {
		return s.rng.Int63()
	}
	s.drawn++
	w := func(i int) uint64 { return lehmerWord(s.x0, i) ^ rngCooked[i] }
	return int64((w(rngFeed(s.drawn)) + w(rngLen-s.drawn)) &^ (1 << 63))
}
