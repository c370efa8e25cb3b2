package service

import (
	"hash/fnv"
	"sync"
	"time"

	"conprobe/internal/vtime"
)

// Selection models interest-based read results: instead of the newest
// writes in store order, a read returns "a selection of writes based on a
// criteria that depends on the expected interest of these writes for the
// user issuing the read operation" (Section V, Facebook Feed).
//
// Entries younger than FreshFor are unstable: their relative order is
// perturbed per (reader, read) and each may be dropped from the result.
// Older entries are returned in stable store order, so selection-induced
// divergence heals as content ages.
type Selection struct {
	// FreshFor is the age below which an entry's ranking is unstable.
	FreshFor time.Duration
	// Shuffle in [0,1] is the probability that each adjacent pair of
	// fresh entries is swapped during ranking.
	Shuffle float64
	// DropFresh in [0,1] is the probability that a fresh entry is
	// omitted from a read result entirely.
	DropFresh float64
	// TopK, when positive, truncates the result to the K best-ranked
	// entries.
	TopK int
}

// apply ranks one read's posts. They are the replica's shared rendering
// (Service.Read), so apply never writes to them: it copies them, from b,
// at its first drop or swap, and a read that changes nothing stays
// shared. seed namespaces the service instance; reader and nonce make
// each (reader, read) ranking distinct but deterministic for a campaign
// seed: its draws are math/rand's for selectionSeed (selectionStream).
func (sel *Selection) apply(posts []Post, b *postBlock, clock vtime.Clock, seed int64, reader string, nonce uint64) []Post {
	if sel == nil {
		return posts
	}
	// Seeded at the first draw: a read with no fresh entry never draws.
	var rng selectionStream
	draw := func() float64 {
		if rng.x0 == 0 {
			rng = newSelectionStream(selectionSeed(seed, reader, nonce))
		}
		return rng.Float64()
	}
	cutoff := clock.Now().Add(-sel.FreshFor)

	// out is a prefix of posts until the first change, then the reader's
	// own copy, with room for at most n posts.
	out, shared := posts[:0], true
	own := func(n int) {
		if shared {
			out, shared = append(b.carve(n)[:0], out...), false
		}
	}
	freshStart := -1
	for i, p := range posts {
		fresh := sel.FreshFor > 0 && !p.CreatedAt.Before(cutoff)
		if fresh && sel.DropFresh > 0 && draw() < sel.DropFresh {
			own(len(posts) - 1)
			continue
		}
		if shared {
			out = posts[:i+1]
		} else {
			out = append(out, p)
		}
		if fresh && freshStart < 0 {
			freshStart = len(out) - 1
		}
	}
	if freshStart >= 0 && sel.Shuffle > 0 {
		for i := freshStart + 1; i < len(out); i++ {
			if draw() < sel.Shuffle {
				own(len(out))
				out[i-1], out[i] = out[i], out[i-1]
			}
		}
	}
	if sel.TopK > 0 && len(out) > sel.TopK {
		out = out[:sel.TopK]
	}
	return out[:len(out):len(out)] // an append must not reach the rest
}

// selectionSeed derives a deterministic per-read seed.
func selectionSeed(seed int64, reader string, nonce uint64) int64 {
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(uint64(seed) >> (8 * i))
	}
	_, _ = h.Write(buf[:])
	_, _ = h.Write([]byte(reader))
	for i := 0; i < 8; i++ {
		buf[i] = byte(nonce >> (8 * i))
	}
	_, _ = h.Write(buf[:])
	return int64(h.Sum64())
}

// postBlock is where selections carve the posts they reorder or drop. A
// carve's capacity is cut, so an append reallocates; readers keep what
// they were given, so a used-up block is replaced, never reused.
type postBlock struct {
	mu   sync.Mutex // consvc and conload -inproc read concurrently
	free []Post
}

// postBlockSize is how many posts are allocated at a time: a few tests'
// worth of selection copies.
const postBlockSize = 1024

// carve takes the next n posts of the block. A long timeline gets a
// slice of its own: carved, it would use up a block by itself and keep
// other readers' posts alive with it.
func (b *postBlock) carve(n int) []Post {
	if n > postBlockSize/4 {
		return make([]Post, n)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.free == nil || n > len(b.free) {
		b.free = make([]Post, postBlockSize)
	}
	posts := b.free[:n:n]
	b.free = b.free[n:]
	return posts
}
