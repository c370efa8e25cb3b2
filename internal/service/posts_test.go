package service

import (
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"
	"unsafe"

	"conprobe/internal/simnet"
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

func TestInterleavedReadsShareOneRendering(t *testing.T) {
	s, svc := settledService(t, 5)
	first := mustRead(t, s, svc, "agent1")
	if rendering, err := svc.Cluster().Read(simnet.DCEast); err != nil || &rendering[0] != &first[0] {
		t.Fatalf("a read is not the store's rendering (err %v)", err)
	}
	var held [][]Post
	for i := 0; i < 3*postBlockSize/5; i++ { // what once took several blocks
		held = append(held, mustRead(t, s, svc, "agent"+strconv.Itoa(1+i%2)))
	}
	for i, ps := range held {
		if len(ps) != 5 || cap(ps) != 5 {
			t.Fatalf("read %d: len %d cap %d, want 5 and no spare capacity", i, len(ps), cap(ps))
		}
		if &ps[0] != &first[0] {
			t.Fatalf("read %d has posts of its own; readers of a settled replica share one rendering", i)
		}
	}

	s.Go(func() {
		if err := svc.Write(simnet.Oregon, Post{ID: "m5", Author: "agent1"}); err != nil {
			t.Error(err)
		}
		s.Sleep(10 * time.Minute)
	})
	s.Wait()
	next := mustRead(t, s, svc, "agent2")
	if len(next) != 6 || &next[0] == &first[0] {
		t.Fatalf("after a write: %v, sharing the old posts %v", postIDs(next), &next[0] == &first[0])
	}
	for j, p := range first {
		if want := "m" + strconv.Itoa(j); p.ID != want {
			t.Fatalf("a held read shows %s at %d after a write, want %s", p.ID, j, want)
		}
	}
}

func TestCallerCopiesBeforeItWrites(t *testing.T) {
	s, svc := settledService(t, 4)
	rendering, err := svc.Cluster().Read(simnet.DCEast)
	if err != nil {
		t.Fatal(err)
	}
	before := slices.Clone(rendering)
	a := mustRead(t, s, svc, "agent1")
	b := mustRead(t, s, svc, "agent2")
	if &a[0] != &b[0] || &a[0] != &rendering[0] {
		t.Fatal("two settled reads do not share the store's rendering; the test needs them to")
	}

	grown := append(a, Post{ID: "appended"})
	if cap(a) != len(a) || &grown[0] == &a[0] {
		t.Fatal("appending to a read grew it in place, over memory its readers share")
	}
	if grown[4].ID != "appended" || grown[3].ID != "m3" {
		t.Fatal("append lost the caller's posts")
	}

	mine := slices.Clone(a)
	slices.Reverse(mine)
	mine = mine[:1]
	if mine[0].ID != "m3" {
		t.Fatalf("reversed and truncated copy starts with %s, want m3", mine[0].ID)
	}
	if got := postIDs(b); !strEq(got, []string{"m0", "m1", "m2", "m3"}) {
		t.Fatalf("reordering a copy changed a shared read to %v", got)
	}
	if !slices.Equal(rendering, before) {
		t.Fatal("reordering a copy wrote to the store's shared rendering")
	}
	next := mustRead(t, s, svc, "agent1")
	if got := postIDs(next); !strEq(got, []string{"m0", "m1", "m2", "m3"}) || &next[0] != &a[0] {
		t.Fatalf("a later read returned %v, shared %v", got, &next[0] == &a[0])
	}
}

func TestLargeReadLeavesTheBlockAlone(t *testing.T) {
	const large = postBlockSize/4 + 1
	var b postBlock
	small := b.carve(2)
	free := len(b.free)
	big := b.carve(large)
	if len(b.free) != free {
		t.Fatalf("a copy of %d posts took %d from the block", large, free-len(b.free))
	}
	blockLo, _ := span(small)
	blockHi := blockLo + postBlockSize*unsafe.Sizeof(Post{})
	if lo, _ := span(big); lo >= blockLo && lo < blockHi {
		t.Fatal("a large copy was carved from the block and pins it")
	}
	if len(big) != large || cap(big) != large {
		t.Fatalf("large copy: len %d cap %d", len(big), cap(big))
	}
	if at := b.carve(postBlockSize / 4); len(b.free) != free-postBlockSize/4 || len(at) != postBlockSize/4 {
		t.Fatalf("a copy at the threshold must be carved: %d left of %d", len(b.free), free)
	}
}

// TestEmptyReadIsEmptyNotNil: an empty replica reads as a non-nil empty
// slice, through the store and the service, before and after a Reset, and
// so does an empty carve.
func TestEmptyReadIsEmptyNotNil(t *testing.T) {
	for _, name := range ProfileNames() {
		p, err := ProfileByName(name)
		if err != nil {
			t.Fatal(err)
		}
		s, svc, _ := newService(t, p, 3)
		for i := 0; i < 2; i++ { // a fresh store, then one Reset after a write
			rendering, err := svc.Cluster().Read(p.Routing[simnet.Oregon])
			if err != nil {
				t.Fatal(err)
			}
			for _, got := range [][]Post{rendering, mustRead(t, s, svc, "agent1")} {
				if got == nil || len(got) != 0 || cap(got) != 0 {
					t.Fatalf("%s: empty read %d: %v (nil %v, cap %d)", name, i, got, got == nil, cap(got))
				}
			}
			s.Go(func() {
				if err := svc.Write(simnet.Oregon, Post{ID: "m1"}); err != nil {
					t.Error(err)
				}
			})
			s.Wait()
			if err := svc.Reset(); err != nil {
				t.Fatal(err)
			}
		}
	}
	var b postBlock
	for i := 0; i < 2; i++ { // before the first block and out of one
		if got := b.carve(0); got == nil || len(got) != 0 || cap(got) != 0 {
			t.Fatalf("empty carve %d: %v (nil %v, cap %d)", i, got, got == nil, cap(got))
		}
		b.free = b.free[len(b.free):]
	}
}

// TestConcurrentReadsOnARealClock is the consvc / conload -inproc shape:
// goroutines reading on a real clock while one writes, each holding every
// result it got. Run under -race: readers share results, so a write to
// one anywhere would race; and none may change after it was returned.
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
	type held struct{ got, then []Post }
	var kept [readers][]held
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				ps, err := svc.Read(simnet.Ireland, "reader"+strconv.Itoa(r))
				if err != nil {
					t.Error(err)
					return
				}
				kept[r] = append(kept[r], held{ps, slices.Clone(ps)})
			}
		}(r)
	}
	wg.Wait()
	for r := range kept {
		for i, h := range kept[r] {
			if !slices.Equal(h.got, h.then) {
				t.Fatalf("reader%d read %d changed after it was returned: %v, was %v", r, i, postIDs(h.got), postIDs(h.then))
			}
			for _, p := range h.got {
				if p.Author != "w" {
					t.Errorf("reader%d: post %q by %q among its reads", r, p.ID, p.Author)
				}
			}
		}
	}
}
