package main

import (
	"context"
	"sync"
	"time"

	"deep500/internal/load"
)

// poissonSchedule is the open-loop arrival schedule of one window: a
// seeded Poisson process at rate requests per second over d.
func poissonSchedule(rate float64, d time.Duration, seed uint64) ([]time.Duration, error) {
	return load.Profile{Kind: load.Steady, Rate: rate, Duration: d}.Schedule(seed)
}

// sendFunc issues request i of the schedule and checks its response.
type sendFunc func(ctx context.Context, i int) error

// loopResult is the fate of every scheduled request.
type loopResult struct {
	// lat is each request's latency in ms, from its due time to its
	// checked response; lag is how late it was sent, in ms.
	lat, lag []float64
	done     []time.Time
	errs     []error
}

// openLoop sends each request of schedule at its due time, with at most
// slots requests in flight. When every slot is busy the generator waits;
// that wait shows in lag and, because each request's clock starts at its
// due time, in latency too, so a stalled sender cannot hide its stall.
// Each request's context expires deadline after its due time. Spans of
// request i go to rec under trace i: the root, the generator's wait and
// the client call.
func openLoop(ctx context.Context, schedule []time.Duration, slots int, deadline time.Duration, rec *recorder, send sendFunc) loopResult {
	n := len(schedule)
	res := loopResult{lat: make([]float64, n), lag: make([]float64, n), done: make([]time.Time, n), errs: make([]error, n)}
	sem := make(chan struct{}, slots)
	var wg sync.WaitGroup
	start := time.Now()
	for i, at := range schedule {
		due := start.Add(at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sem <- struct{}{}
		sent := time.Now()
		res.lag[i] = ms(sent.Sub(due))
		wg.Add(1)
		go func(i int, due, sent time.Time) {
			defer wg.Done()
			rctx, cancel := context.WithDeadline(ctx, due.Add(deadline))
			err := send(rctx, i)
			cancel()
			done := time.Now()
			<-sem
			res.errs[i], res.done[i] = err, done
			res.lat[i] = ms(done.Sub(due))
			rec.add(int64(i), rootSpan, "", due, done, 0)
			rec.add(int64(i), "load.wait", rootSpan, due, sent, 0)
			rec.add(int64(i), "client", rootSpan, sent, done, 0)
		}(i, due, sent)
	}
	wg.Wait()
	return res
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
