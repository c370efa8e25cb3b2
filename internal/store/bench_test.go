package store

import (
	"fmt"
	"testing"

	"conprobe/internal/simnet"
	"conprobe/internal/vtime"
)

// BenchmarkStoreReadCached isolates the timeline-cache fast path: a
// quiescent replica read over and over. This is the common case during
// a campaign's read phases, where many probes land between writes.
func BenchmarkStoreReadCached(b *testing.B) {
	sites := []simnet.Site{simnet.DCWest, simnet.DCEast}
	net := simnet.DefaultTopology(1)
	c, err := NewCluster(vtime.Real{}, net, Config{Mode: Strong, Sites: sites}, 1)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 1024; i++ {
		if _, err := c.Write(sites[0], fmt.Sprintf("seed%d", i), "a", ""); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Read(sites[0]); err != nil {
			b.Fatal(err)
		}
	}
}
