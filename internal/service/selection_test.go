package service

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"conprobe/internal/store"
	"conprobe/internal/vtime"
)

// testPosts is the one block the selection tests carve their posts from,
// as the reads of one Simulated do: a selection that wrote past its own
// posts would show in the next case.
var testPosts postBlock

// selected runs sel the way Simulated.Read does: over the shared posts of
// a rendering, copying from the same block.
func selected(sel *Selection, entries []store.Entry, clock vtime.Clock, seed int64, reader string, nonce uint64) []Post {
	return sel.apply(testPosts.of("", entries), &testPosts, clock, seed, reader, nonce)
}

// referenceApply is Selection.apply as it was before the generator was
// pooled: a new source seeded up front on every read.
func referenceApply(sel *Selection, entries []store.Entry, now time.Time, seed int64, reader string, nonce uint64) []store.Entry {
	rng := rand.New(rand.NewSource(selectionSeed(seed, reader, nonce)))
	cutoff := now.Add(-sel.FreshFor)
	out := make([]store.Entry, 0, len(entries))
	freshStart := -1
	for _, e := range entries {
		fresh := sel.FreshFor > 0 && !e.CreatedAt.Before(cutoff)
		if fresh && sel.DropFresh > 0 && rng.Float64() < sel.DropFresh {
			continue
		}
		out = append(out, e)
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

// selectionCase derives one (selection, entries, seed, reader, nonce)
// draw from n: a mix of aged and fresh entries under varied knobs.
func selectionCase(n int) (*Selection, []store.Entry, int64, string, uint64) {
	r := rand.New(rand.NewSource(int64(n)))
	sel := &Selection{
		FreshFor:  time.Duration(r.Intn(3)) * time.Minute,
		Shuffle:   float64(r.Intn(3)) / 2,
		DropFresh: float64(r.Intn(3)) / 4,
		TopK:      r.Intn(6),
	}
	entries := make([]store.Entry, r.Intn(10))
	for i := range entries {
		age := time.Duration(r.Intn(240)) * time.Second
		entries[i] = store.Entry{ID: fmt.Sprintf("m%d", i), CreatedAt: epoch.Add(-age)}
	}
	return sel, entries, r.Int63(), fmt.Sprintf("agent-%d", r.Intn(3)), r.Uint64()
}

// checkSelectionCase holds the copy-on-write selection, run the way
// Simulated.Read runs it, against the reference. The store rendering and
// the posts every reader shares must come out unwritten, a result that
// changed nothing must still be the shared posts, and no result may have
// spare capacity.
func checkSelectionCase(t *testing.T, clock vtime.Clock, n int) {
	sel, entries, seed, reader, nonce := selectionCase(n)
	rendering := slices.Clone(entries)
	shared := testPosts.of("", entries)
	before := slices.Clone(shared)
	got := sel.apply(shared, &testPosts, clock, seed, reader, nonce)
	if !slices.Equal(entries, rendering) {
		t.Errorf("case %d: selection wrote to the store rendering", n)
	}
	if !slices.Equal(shared, before) {
		t.Errorf("case %d: selection wrote to the posts its readers share", n)
	}
	if len(got) != cap(got) {
		t.Errorf("case %d: result has len %d cap %d", n, len(got), cap(got))
	}
	if len(got) > 0 && slices.Equal(got, shared) && &got[0] != &shared[0] {
		t.Errorf("case %d: a selection that changed nothing copied the posts", n)
	}
	want := referenceApply(sel, entries, clock.Now(), seed, reader, nonce)
	if len(got) != len(want) {
		t.Errorf("case %d: %d entries, reference %d", n, len(got), len(want))
		return
	}
	for i := range got {
		if got[i].ID != want[i].ID {
			t.Errorf("case %d: entry %d is %s, reference %s", n, i, got[i].ID, want[i].ID)
			return
		}
	}
}

func TestSelectionMatchesFreshSourcePerRead(t *testing.T) {
	clock := vtime.NewSim(epoch)
	for n := 0; n < 12000; n++ {
		checkSelectionCase(t, clock, n)
	}
}

// Concurrent readers share the generator pool; each must still get the
// stream of its own (seed, reader, nonce).
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
