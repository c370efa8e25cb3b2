package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"conprobe/internal/simnet"
	"conprobe/internal/vtime"
	"conprobe/internal/wal"
)

// durableCfg returns a strong-mode config logging into dir.
func durableCfg(dir string) Config {
	return Config{
		Mode:    Strong,
		Sites:   []simnet.Site{simnet.DCWest, simnet.DCAsia},
		Durable: &Durable{Dir: dir},
	}
}

func newDurableCluster(t *testing.T, cfg Config) (*vtime.Sim, *Cluster) {
	t.Helper()
	s := vtime.NewSim(epoch0)
	net := simnet.DefaultTopology(42, simnet.WithJitter(0))
	c, err := NewCluster(s, net, cfg, 42)
	if err != nil {
		t.Fatal(err)
	}
	return s, c
}

// writeN performs n writes with sequential IDs starting at base.
func writeN(t *testing.T, s *vtime.Sim, c *Cluster, base, n int) {
	t.Helper()
	s.Go(func() {
		for i := 0; i < n; i++ {
			id := fmt.Sprintf("m%d", base+i)
			if _, err := c.Write(simnet.DCWest, id, "a1", "body "+id); err != nil {
				t.Errorf("write %s: %v", id, err)
			}
		}
	})
	s.Wait()
}

func readIDs(t *testing.T, s *vtime.Sim, c *Cluster, dc simnet.Site) []string {
	t.Helper()
	var ids []string
	s.Go(func() {
		entries, err := c.Read(dc)
		if err != nil {
			t.Errorf("read: %v", err)
			return
		}
		ids = idsOf(entries)
	})
	s.Wait()
	return ids
}

// TestDurableLogsEveryAckedWriteAndRefusesToReopen: each acked write is
// a record of the log, and since nothing reads the log back, a cluster
// over a Dir whose log holds records is refused — naming the Dir and
// leaving the log as it was — rather than started empty.
func TestDurableLogsEveryAckedWriteAndRefusesToReopen(t *testing.T) {
	dir := t.TempDir()
	s, c := newDurableCluster(t, durableCfg(dir))
	writeN(t, s, c, 0, 5)
	c.Reset()
	writeN(t, s, c, 5, 2)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "wal-0.log")
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := wal.ReadFS(nil, path)
	if err != nil || len(rep.Records) != 7 || rep.Note != "" {
		t.Fatalf("log holds %d records (note %q, %v), want the 7 acked writes", len(rep.Records), rep.Note, err)
	}
	net := simnet.DefaultTopology(42, simnet.WithJitter(0))
	if _, err := NewCluster(vtime.NewSim(epoch0), net, durableCfg(dir), 42); err == nil || !strings.Contains(err.Error(), dir) {
		t.Fatalf("NewCluster over a log of acked writes: %v, want a refusal naming %s", err, dir)
	}
	if after, err := os.ReadFile(path); err != nil || string(after) != string(before) {
		t.Fatalf("the refused open changed the log (read error %v)", err)
	}
}

func TestDurableMidFileCorruptionRefusesStart(t *testing.T) {
	dir := t.TempDir()
	cfg := durableCfg(dir)
	s, c := newDurableCluster(t, cfg)
	writeN(t, s, c, 0, 5)

	p := filepath.Join(dir, "wal-0.log")
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	data[10] ^= 0xFF // damage inside the first record
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}

	net := simnet.DefaultTopology(42, simnet.WithJitter(0))
	_, err = NewCluster(vtime.NewSim(epoch0), net, cfg, 42)
	var ce *wal.CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("got %v, want *wal.CorruptError", err)
	}
	if ce.Offset != 0 {
		t.Errorf("corruption offset = %d, want 0 (first frame)", ce.Offset)
	}
}

func TestDurableRequiresDir(t *testing.T) {
	net := simnet.DefaultTopology(42)
	cfg := Config{Mode: Strong, Sites: []simnet.Site{simnet.DCWest}, Durable: &Durable{}}
	if _, err := NewCluster(vtime.NewSim(epoch0), net, cfg, 1); err == nil {
		t.Fatal("NewCluster accepted Durable without Dir")
	}
}

// TestDurableAppendFailureDoesNotResurrectRejectedWrite forces a log
// append failure: the write is refused and shows at no replica, so no
// read can see a write that was never acknowledged.
func TestDurableAppendFailureDoesNotResurrectRejectedWrite(t *testing.T) {
	cfg := durableCfg(t.TempDir())
	s, c := newDurableCluster(t, cfg)
	writeN(t, s, c, 0, 3)
	want := readIDs(t, s, c, simnet.DCWest)
	if len(want) != 3 {
		t.Fatalf("pre-failure read has %d entries", len(want))
	}

	// Close the log, so the next append fails.
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	s.Go(func() {
		if _, err := c.Write(simnet.DCWest, "bad", "a1", "x"); err == nil {
			t.Errorf("write on a closed log was acked")
		}
	})
	s.Wait()
	for _, dc := range cfg.Sites {
		if got := readIDs(t, s, c, dc); !eq(got, want) {
			t.Fatalf("read at %s after the refused write = %v, want %v", dc, got, want)
		}
	}
}
