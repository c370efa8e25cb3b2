package service

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"conprobe/internal/simnet"
	"conprobe/internal/store"
	"conprobe/internal/vtime"
)

// testPosts is the one block the selection tests carve their copies
// from, as the reads of one Simulated do: a selection that wrote past its
// own posts would show in the next case.
var testPosts postBlock

// selected runs sel the way Simulated.Read does: over the shared posts of
// a read, copying from the same block.
func selected(sel *Selection, posts []Post, clock vtime.Clock, seed int64, reader string, nonce uint64) []Post {
	return sel.apply(posts, &testPosts, clock, seed, reader, nonce)
}

// referenceApply is Selection.apply as it was before its draws were
// computed on demand: a new math/rand source seeded up front on every
// read, and a copy of every read.
func referenceApply(sel *Selection, posts []Post, now time.Time, seed int64, reader string, nonce uint64) []Post {
	rng := rand.New(rand.NewSource(selectionSeed(seed, reader, nonce)))
	cutoff := now.Add(-sel.FreshFor)
	out := make([]Post, 0, len(posts))
	freshStart := -1
	for _, p := range posts {
		fresh := sel.FreshFor > 0 && !p.CreatedAt.Before(cutoff)
		if fresh && sel.DropFresh > 0 && rng.Float64() < sel.DropFresh {
			continue
		}
		out = append(out, p)
		if fresh && freshStart < 0 {
			freshStart = len(out) - 1
		}
	}
	if freshStart >= 0 && sel.Shuffle > 0 {
		for i := freshStart + 1; i < len(out); i++ {
			if rng.Float64() < sel.Shuffle {
				out[i-1], out[i] = out[i], out[i-1]
			}
		}
	}
	if sel.TopK > 0 && len(out) > sel.TopK {
		out = out[:sel.TopK]
	}
	return out
}

// rendering writes one post per age, oldest first, to a one-replica store
// whose indexing jitter shuffles the order they are applied in, and
// returns the replica's read once every post is applied: posts created
// age before epoch, aged and fresh ones interleaved.
func rendering(t *testing.T, ages []time.Duration, seed int64) []Post {
	slices.SortFunc(ages, func(a, b time.Duration) int { return int(b - a) })
	sim := vtime.NewSim(epoch.Add(-4 * time.Minute))
	c, err := store.NewCluster(sim, simnet.DefaultTopology(seed), store.Config{
		Mode: store.Eventual, Sites: []simnet.Site{simnet.DCEast}, Order: store.OrderArrival,
		LocalApplyJitter: 10 * time.Minute,
	}, seed)
	if err != nil {
		t.Fatal(err)
	}
	var posts []Post
	sim.Go(func() {
		for i, age := range ages {
			sim.Sleep(epoch.Add(-age).Sub(sim.Now()))
			if _, err := c.Write(simnet.DCEast, fmt.Sprintf("m%d", i), "a", ""); err != nil {
				t.Error(err)
			}
		}
		sim.Sleep(10 * time.Minute)
		if posts, err = c.Read(simnet.DCEast); err != nil || len(posts) != len(ages) {
			t.Errorf("read %d of %d posts: %v", len(posts), len(ages), err)
		}
	})
	sim.Wait()
	return posts
}

// selectionCase derives one (selection, read, seed, reader, nonce) draw
// from n: a store's read of a mix of aged and fresh posts under varied
// knobs.
func selectionCase(t *testing.T, n int) (*Selection, []Post, int64, string, uint64) {
	r := rand.New(rand.NewSource(int64(n)))
	sel := &Selection{
		FreshFor:  time.Duration(r.Intn(3)) * time.Minute,
		Shuffle:   float64(r.Intn(3)) / 2,
		DropFresh: float64(r.Intn(3)) / 4,
		TopK:      r.Intn(6),
	}
	ages := make([]time.Duration, r.Intn(10))
	for i := range ages {
		ages[i] = time.Duration(r.Intn(240)) * time.Second
	}
	return sel, rendering(t, ages, int64(n)), r.Int63(), fmt.Sprintf("agent-%d", r.Intn(3)), r.Uint64()
}

// checkSelectionCase holds the copy-on-write selection, run the way
// Simulated.Read runs it over the store's shared read, against the
// reference. The read must come out unwritten, a result that changed
// nothing must still be the shared read, and no result may have spare
// capacity.
func checkSelectionCase(t *testing.T, clock vtime.Clock, n int) {
	sel, shared, seed, reader, nonce := selectionCase(t, n)
	before := slices.Clone(shared)
	got := selected(sel, shared, clock, seed, reader, nonce)
	if !slices.Equal(shared, before) {
		t.Errorf("case %d: selection wrote to the store's shared read", n)
	}
	if len(got) != cap(got) {
		t.Errorf("case %d: result has len %d cap %d", n, len(got), cap(got))
	}
	if len(got) > 0 && slices.Equal(got, shared) && &got[0] != &shared[0] {
		t.Errorf("case %d: a selection that changed nothing copied the posts", n)
	}
	want := referenceApply(sel, before, clock.Now(), seed, reader, nonce)
	if !slices.Equal(got, want) {
		t.Errorf("case %d: %v, reference %v", n, postIDs(got), postIDs(want))
	}
}

func TestSelectionMatchesFreshSourcePerRead(t *testing.T) {
	clock := vtime.NewSim(epoch)
	for n := 0; n < 12000; n++ {
		checkSelectionCase(t, clock, n)
	}
}

// Concurrent readers carve copies from one block; each must still get the
// ranking of its own (seed, reader, nonce).
func TestSelectionMatchesFreshSourceConcurrently(t *testing.T) {
	clock := vtime.NewSim(epoch)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := g; n < 4000; n += 4 {
				checkSelectionCase(t, clock, n)
			}
		}(g)
	}
	wg.Wait()
}
