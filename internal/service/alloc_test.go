package service

import (
	"strconv"
	"testing"
	"time"

	"conprobe/internal/simnet"
)

// TestSettledReadAllocatesNothing gates the read path on every shipped
// profile: once the replicas have settled, a Simulated.Read allocates
// nothing, not even bytes carved from a block. The store renders posts
// once per change and every reader shares them, and a selection with
// nothing fresh to rank leaves them as they are: two settled reads return
// the same backing array, a replica's own rendering.
func TestSettledReadAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, name := range ProfileNames() {
		p, err := ProfileByName(name)
		if err != nil {
			t.Fatal(err)
		}
		s, svc, _ := newService(t, p, 3)
		s.Go(func() {
			for i := 0; i < 6; i++ {
				if err := svc.Write(simnet.Oregon, Post{ID: "m" + strconv.Itoa(i), Author: "agent1"}); err != nil {
					t.Error(err)
					return
				}
			}
			s.Sleep(10 * time.Minute) // replicated, normalized and no longer fresh
			var got []Post
			read := func() {
				var err error
				if got, err = svc.Read(simnet.Oregon, "agent1"); err != nil || len(got) != 6 {
					t.Errorf("%s: read %d posts, err %v", name, len(got), err)
				}
			}
			read()
			first := got
			if read(); len(got) > 0 && &got[0] != &first[0] {
				t.Errorf("%s: two settled reads return different backing arrays", name)
			}
			rendered := false
			for _, dc := range p.Store.Sites {
				r, err := svc.Cluster().Read(dc)
				rendered = rendered || err == nil && len(r) > 0 && &r[0] == &first[0]
			}
			if !rendered {
				t.Errorf("%s: a settled read is no replica's rendering", name)
			}
			if n := testing.AllocsPerRun(100, read); n != 0 {
				t.Errorf("%s: a settled Read allocates %v times, want 0", name, n)
			}
		})
		s.Wait()
	}
}
