package main

import (
	"context"
	"sync"
	"time"
)

// opResult is the fate of one scheduled request.
type opResult struct {
	// Late is how long after its due time a connection picked the
	// request up: the generator's own lag.
	Late time.Duration
	// Latency runs from the due time, not the send time, so a stall
	// charges every request queued behind it.
	Latency time.Duration
	Err     error
}

// openLoop issues request i at start+due[i] (due must be ascending),
// whatever happened to earlier requests, over at most conns concurrent
// requests. A request that finds every connection busy waits for one,
// and that wait counts in its latency. do performs request i; it runs on
// one of conns goroutines. openLoop returns once every request has
// finished or ctx is done (unsent requests then fail with ctx.Err()).
func openLoop(ctx context.Context, due []time.Duration, conns int, do func(ctx context.Context, i int) error) []opResult {
	results := make([]opResult, len(due))
	start := time.Now()
	next := make(chan int)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				at := start.Add(due[i])
				results[i].Late = max(time.Since(at), 0)
				results[i].Err = do(ctx, i)
				results[i].Latency = time.Since(at)
			}
		}()
	}
	sent := 0
dispatch:
	for i := range due {
		if d := time.Until(start.Add(due[i])); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
				break dispatch
			}
		}
		select {
		case next <- i:
			sent++
		case <-ctx.Done():
			break dispatch
		}
	}
	close(next)
	wg.Wait()
	for i := sent; i < len(due); i++ {
		results[i].Err = ctx.Err()
	}
	return results
}
