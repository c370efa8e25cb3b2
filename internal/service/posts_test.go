package service

import (
	"cmp"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"
	"unsafe"

	"conprobe/internal/simnet"
	"conprobe/internal/store"
	"conprobe/internal/vtime"
)

// settledService returns a blogger service holding n replicated posts
// m0..m(n-1), and the sim it runs on.
func settledService(t *testing.T, n int) (*vtime.Sim, *Simulated) {
	t.Helper()
	s, svc, _ := newService(t, Blogger(), 3)
	s.Go(func() {
		for i := 0; i < n; i++ {
			if err := svc.Write(simnet.Oregon, Post{ID: "m" + strconv.Itoa(i), Author: "agent1"}); err != nil {
				t.Error(err)
			}
		}
		s.Sleep(10 * time.Minute)
	})
	s.Wait()
	return s, svc
}

// mustRead reads as reader from Oregon inside an actor of s.
func mustRead(t *testing.T, s *vtime.Sim, svc Service, reader string) []Post {
	t.Helper()
	var posts []Post
	s.Go(func() {
		var err error
		if posts, err = svc.Read(simnet.Oregon, reader); err != nil {
			t.Error(err)
		}
	})
	s.Wait()
	return posts
}

// span is the address range of a slice's whole capacity.
func span(ps []Post) (lo, hi uintptr) {
	lo = uintptr(unsafe.Pointer(unsafe.SliceData(ps)))
	return lo, lo + uintptr(cap(ps))*unsafe.Sizeof(Post{})
}

func TestInterleavedReadsNeverOverlap(t *testing.T) {
	s, svc := settledService(t, 5)
	var held [][]Post
	for i := 0; i < 3*postBlockSize/5; i++ { // across several blocks
		held = append(held, mustRead(t, s, svc, "agent"+strconv.Itoa(1+i%2)))
	}
	for i, ps := range held {
		if len(ps) != 5 || cap(ps) != 5 {
			t.Fatalf("read %d: len %d cap %d, want 5 and no spare capacity", i, len(ps), cap(ps))
		}
		for j, p := range ps {
			if want := "m" + strconv.Itoa(j); p.ID != want {
				t.Fatalf("read %d holds %s at %d after later reads, want %s", i, p.ID, j, want)
			}
		}
	}
	slices.SortFunc(held, func(a, b []Post) int {
		la, _ := span(a)
		lb, _ := span(b)
		return cmp.Compare(la, lb)
	})
	for i := 1; i < len(held); i++ {
		_, prevHi := span(held[i-1])
		if lo, _ := span(held[i]); lo < prevHi {
			t.Fatalf("two reads share memory: one ends at %#x, the next starts at %#x", prevHi, lo)
		}
	}
}

func TestCallerMayAppendSortAndTruncateItsPosts(t *testing.T) {
	s, svc := settledService(t, 4)
	rendering, err := svc.Cluster().Read(simnet.DCEast)
	if err != nil {
		t.Fatal(err)
	}
	before := slices.Clone(rendering)
	a := mustRead(t, s, svc, "agent1")
	b := mustRead(t, s, svc, "agent2")
	if _, hiA := span(a); hiA != uintptr(unsafe.Pointer(&b[0])) {
		t.Fatal("the two reads are not neighbours in one block; the test needs them to be")
	}

	grown := append(a, Post{ID: "appended"})
	if b[0].ID != "m0" {
		t.Fatalf("appending to one read wrote %q over its neighbour's first post", b[0].ID)
	}
	if grown[4].ID != "appended" || a[3].ID != "m3" {
		t.Fatal("append lost the caller's own posts")
	}

	slices.Reverse(a)
	a = a[:1]
	if a[0].ID != "m3" {
		t.Fatalf("reversed and truncated read starts with %s, want m3", a[0].ID)
	}
	if got := postIDs(b); !strEq(got, []string{"m0", "m1", "m2", "m3"}) {
		t.Fatalf("reordering one read changed its neighbour to %v", got)
	}
	if !slices.Equal(rendering, before) {
		t.Fatal("reordering a read wrote to the store's shared rendering")
	}
	if got := postIDs(mustRead(t, s, svc, "agent1")); !strEq(got, []string{"m0", "m1", "m2", "m3"}) {
		t.Fatalf("a later read returned %v", got)
	}
}

func TestLargeReadLeavesTheBlockAlone(t *testing.T) {
	const large = postBlockSize/4 + 1
	entries := make([]store.Entry, large)
	for i := range entries {
		entries[i].ID = "m" + strconv.Itoa(i)
	}
	var b postBlock
	small := b.of(entries[:2])
	free := len(b.free)
	big := b.of(entries)
	if len(b.free) != free {
		t.Fatalf("a read of %d posts took %d from the block", large, free-len(b.free))
	}
	blockLo, _ := span(small)
	blockHi := blockLo + postBlockSize*unsafe.Sizeof(Post{})
	if lo, _ := span(big); lo >= blockLo && lo < blockHi {
		t.Fatal("a large read was carved from the block and pins it")
	}
	if len(big) != large || cap(big) != large || big[large-1].ID != entries[large-1].ID {
		t.Fatalf("large read: len %d cap %d last %q", len(big), cap(big), big[large-1].ID)
	}
	if at := b.of(entries[:postBlockSize/4]); len(b.free) != free-postBlockSize/4 || len(at) != postBlockSize/4 {
		t.Fatalf("a read at the threshold must be carved: %d left of %d", len(b.free), free)
	}
}

func TestEmptyReadIsEmptyNotNil(t *testing.T) {
	var b postBlock
	for i := 0; i < 2; i++ { // before the first block and out of one
		if got := b.of(nil); got == nil || len(got) != 0 || cap(got) != 0 {
			t.Fatalf("empty read %d: %v (nil %v, cap %d)", i, got, got == nil, cap(got))
		}
	}
}

// TestConcurrentReadsOnARealClock is the consvc / conload -inproc shape:
// goroutines reading on a real clock while one writes. Run under -race.
func TestConcurrentReadsOnARealClock(t *testing.T) {
	p := Blogger()
	p.APIDelay = 0
	p.Store.PropagationBase, p.Store.PropagationJitter = 0, 0
	net := simnet.DefaultTopology(1, simnet.WithJitter(0))
	for _, from := range []simnet.Site{simnet.Oregon, simnet.Tokyo, simnet.Ireland} {
		net.SetRTT(from, simnet.DCEast, 20*time.Microsecond)
	}
	svc, err := NewSimulated(vtime.Real{}, net, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	const writes, readers = 40, 8
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < writes; i++ {
			if err := svc.Write(simnet.Oregon, Post{ID: "m" + strconv.Itoa(i), Author: "w"}); err != nil {
				t.Error(err)
			}
		}
	}()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(reader string) {
			defer wg.Done()
			var kept [][]Post
			for i := 0; i < 60; i++ {
				ps, err := svc.Read(simnet.Ireland, reader)
				if err != nil {
					t.Error(err)
					return
				}
				slices.Reverse(ps) // the caller owns it
				kept = append(kept, append(ps, Post{ID: reader}))
			}
			for _, ps := range kept {
				if ps[len(ps)-1].ID != reader {
					t.Errorf("%s: another reader wrote into this one's posts", reader)
				}
				for _, p := range ps[:len(ps)-1] {
					if p.Author != "w" {
						t.Errorf("%s: post %q by %q among its reads", reader, p.ID, p.Author)
					}
				}
			}
		}("reader" + strconv.Itoa(r))
	}
	wg.Wait()
}
