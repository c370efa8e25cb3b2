package probe

import (
	"context"
	"errors"
	"time"

	"conprobe/internal/resilience"
	"conprobe/internal/service"
	"conprobe/internal/trace"
)

// RunTest1 executes one instance of Test 1 (Figure 1): each agent issues
// two consecutive writes and reads continuously in the background; the
// writes are staggered, with agent i issuing its first write when it
// observes the last write of agent i-1. The test completes when every
// agent has observed the final write (M6 for three agents), or when the
// per-agent timeout expires. Cancelling ctx makes each agent stop at its
// next operation boundary instead of running the protocol to completion.
func (r *Runner) RunTest1(ctx context.Context, testID int) (*trace.TestTrace, error) {
	return r.runTest(ctx, testID, trace.Test1)
}

// runTest1Agent is one agent's Test 1 protocol.
func (r *Runner) runTest1Agent(ctx context.Context, ag Agent, client service.Service, testID int, startLocal time.Time, finalWrite trace.WriteID, rec *recorder) {
	cl := ag.Clock
	cfg := r.cfg.Test1
	sleepUntil(cl, startLocal)
	deadline := cl.Now().Add(cfg.Timeout)

	// trigger is the write of agent ID-1 whose observation releases this
	// agent's writes; agent 1 writes unconditionally at the start.
	var trigger trace.WriteID
	if ag.ID > 1 {
		trigger = writeID(testID, 2*(int(ag.ID)-1))
	}
	wrote := false
	sawFinal := false

	doWrites := func() {
		first := writeID(testID, 2*int(ag.ID)-1)
		second := writeID(testID, 2*int(ag.ID))
		r.doWrite(ag, client, rec, first, trigger)
		if cfg.WriteGap > 0 {
			cl.Sleep(cfg.WriteGap)
		}
		r.doWrite(ag, client, rec, second, "")
		wrote = true
	}

	if ctx.Err() != nil {
		return
	}
	if ag.ID == 1 {
		doWrites()
	}
	for {
		if ctx.Err() != nil {
			return
		}
		obs := r.doRead(ag, client, rec)
		if !wrote && trigger != "" && containsID(obs, trigger) {
			doWrites()
			// Re-read promptly so the agent can observe its own writes.
			continue
		}
		if !sawFinal && containsID(obs, finalWrite) {
			sawFinal = true
		}
		if sawFinal && wrote {
			return
		}
		if cl.Now().After(deadline) {
			return
		}
		cl.Sleep(cfg.ReadPeriod)
	}
}

// doWrite issues and records one write on behalf of ag.
func (r *Runner) doWrite(ag Agent, client service.Service, rec *recorder, id trace.WriteID, trigger trace.WriteID) {
	if skipUnhealthy(client, rec) {
		return
	}
	cl := ag.Clock
	invoked := cl.Now()
	err := client.Write(ag.Site, service.Post{
		ID:        string(id),
		Author:    ag.Label(),
		Body:      "message " + string(id) + " from " + ag.Label(),
		DependsOn: string(trigger),
	})
	returned := cl.Now()
	if err != nil {
		// A failed write inserted nothing; it is not part of the trace,
		// but the failure is accounted. Breaker-open rejections are
		// counted as skips by the middleware itself.
		if !errors.Is(err, resilience.ErrOpen) {
			rec.failed++
		}
		return
	}
	rec.writes = append(rec.writes, trace.Write{
		ID:       id,
		Agent:    ag.ID,
		Seq:      len(rec.writes) + 1,
		Invoked:  invoked,
		Returned: returned,
		Trigger:  trigger,
	})
}

// doRead issues and records one read, returning the observed IDs.
func (r *Runner) doRead(ag Agent, client service.Service, rec *recorder) []trace.WriteID {
	if skipUnhealthy(client, rec) {
		return nil
	}
	cl := ag.Clock
	invoked := cl.Now()
	posts, err := client.Read(ag.Site, ag.Label())
	returned := cl.Now()
	if err != nil {
		// Failed reads are dropped, as in the paper's data collection,
		// but accounted.
		if !errors.Is(err, resilience.ErrOpen) {
			rec.failed++
		}
		return nil
	}
	obs := rec.observe(posts)
	rec.reads = append(rec.reads, trace.Read{
		Agent:    ag.ID,
		Invoked:  invoked,
		Returned: returned,
		Observed: obs,
	})
	return obs
}

// skipUnhealthy accounts and skips an operation when the agent's client
// reports an open circuit breaker — graceful degradation: the unhealthy
// agent's coverage shrinks, the campaign continues, and the skip is
// visible in the trace instead of silently biasing it.
func skipUnhealthy(client service.Service, rec *recorder) bool {
	if h, ok := client.(Health); ok && !h.Healthy() {
		rec.skipped++
		return true
	}
	return false
}

func containsID(obs []trace.WriteID, id trace.WriteID) bool {
	for _, o := range obs {
		if o == id {
			return true
		}
	}
	return false
}
