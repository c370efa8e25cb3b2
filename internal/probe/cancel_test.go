package probe

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"conprobe/internal/service"
	"conprobe/internal/simnet"
	"conprobe/internal/trace"
	"conprobe/internal/vtime"
)

// cancelOnWrite cancels the campaign context from inside the service
// after n writes, modeling an operator interrupt landing mid-test.
type cancelOnWrite struct {
	service.Service
	mu     sync.Mutex
	left   int
	cancel context.CancelFunc
}

func (c *cancelOnWrite) Write(from simnet.Site, p service.Post) error {
	c.mu.Lock()
	c.left--
	if c.left == 0 {
		c.cancel()
	}
	c.mu.Unlock()
	return c.Service.Write(from, p)
}

func TestRunCampaignCancelledMidTest(t *testing.T) {
	sim := vtime.NewSim(epoch)
	net := simnet.DefaultTopology(1)
	svc, err := service.NewSimulated(sim, net, service.Blogger(), 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	wrapped := &cancelOnWrite{Service: svc, left: 2, cancel: cancel}
	agents := DefaultAgents(sim, time.Second, 2)
	cfg, err := CampaignFor(service.NameBlogger, agents, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(sim, net, wrapped, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var (
		res    *Result
		runErr error
	)
	sim.Go(func() { res, runErr = r.RunCampaign(ctx) })
	sim.Wait()
	if !errors.Is(runErr, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", runErr)
	}
	// Cancellation landed during the first test: its incomplete trace is
	// dropped and no later test starts, so the partial result is empty
	// but non-nil.
	if res == nil {
		t.Fatal("cancelled campaign returned nil result")
	}
	if len(res.Traces) != 0 {
		t.Fatalf("mid-test cancellation kept %d incomplete traces", len(res.Traces))
	}
}

func TestRunCampaignCancelledBetweenTests(t *testing.T) {
	sim := vtime.NewSim(epoch)
	net := simnet.DefaultTopology(1)
	svc, err := service.NewSimulated(sim, net, service.Blogger(), 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	agents := DefaultAgents(sim, time.Second, 2)
	cfg, err := CampaignFor(service.NameBlogger, agents, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Cancel from the trace sink: the current test is complete (its
	// trace is kept), and the next one must not start.
	cfg.Sink = func(tr *trace.TestTrace, _ time.Time) error {
		if tr.TestID == 1 {
			cancel()
		}
		return nil
	}
	r, err := NewRunner(sim, net, svc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var (
		res    *Result
		runErr error
	)
	sim.Go(func() { res, runErr = r.RunCampaign(ctx) })
	sim.Wait()
	if !errors.Is(runErr, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", runErr)
	}
	if res == nil || len(res.Traces) != 1 {
		t.Fatalf("want exactly the one completed trace, got %+v", res)
	}
}
