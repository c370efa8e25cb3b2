package service

import (
	"strconv"
	"testing"
	"time"

	"conprobe/internal/simnet"
)

// TestSettledReadAllocatesNothing gates the read path on every shipped
// profile: once the replicas have settled, a Simulated.Read allocates
// nothing (a new block of posts every 170 reads of six rounds down to
// zero). The store's rendering is shared, the caller's posts are carved
// from the service's block, selection ranks them in place.
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
			read := func() {
				if got, err := svc.Read(simnet.Oregon, "agent1"); err != nil || len(got) != 6 {
					t.Errorf("%s: read %d posts, err %v", name, len(got), err)
				}
			}
			read()
			if n := testing.AllocsPerRun(100, read); n != 0 {
				t.Errorf("%s: a settled Read allocates %v times, want 0", name, n)
			}
		})
		s.Wait()
	}
}
