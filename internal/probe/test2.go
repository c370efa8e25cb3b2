package probe

import (
	"context"
	"time"

	"conprobe/internal/service"
	"conprobe/internal/trace"
)

// RunTest2 executes one instance of Test 2 (Figure 2): every agent issues
// a single write as simultaneously as the estimated clock deltas allow,
// then reads continuously — the first FastReads reads at ReadPeriod, the
// rest at SlowPeriod — until it has performed ReadsPerAgent reads. The
// adaptive period gives high resolution while writes become visible
// without exceeding service rate limits. Cancelling ctx makes each agent
// stop at its next operation boundary.
func (r *Runner) RunTest2(ctx context.Context, testID int) (*trace.TestTrace, error) {
	return r.runTest(ctx, testID, trace.Test2)
}

// runTest2Agent is one agent's Test 2 protocol.
func (r *Runner) runTest2Agent(ctx context.Context, ag Agent, client service.Service, testID int, startLocal time.Time, rec *recorder) {
	cl := ag.Clock
	cfg := r.cfg.Test2
	sleepUntil(cl, startLocal)

	if ctx.Err() != nil {
		return
	}
	r.doWrite(ag, client, rec, writeID(testID, int(ag.ID)), "")
	for n := 0; n < cfg.ReadsPerAgent; n++ {
		if ctx.Err() != nil {
			return
		}
		r.doRead(ag, client, rec)
		if n == cfg.ReadsPerAgent-1 {
			break
		}
		period := cfg.ReadPeriod
		if cfg.FastReads > 0 && n >= cfg.FastReads {
			period = cfg.SlowPeriod
		}
		cl.Sleep(period)
	}
}
