package main

import (
	"context"
	"errors"
	"testing"
	"time"
)

// With one connection and three requests due at once, each waits for
// the one before it, and that wait is part of its latency.
func TestOpenLoopCountsLatencyFromDueTime(t *testing.T) {
	const work = 40 * time.Millisecond
	due := []time.Duration{0, 0, 0}
	res := openLoop(context.Background(), due, 1, func(ctx context.Context, i int) error {
		time.Sleep(work)
		return nil
	})
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("request %d: %v", i, r.Err)
		}
		wantLate := time.Duration(i) * work
		if r.Late < wantLate || r.Late > wantLate+work/2 {
			t.Errorf("request %d late %v, want about %v", i, r.Late, wantLate)
		}
		if r.Latency < wantLate+work || r.Latency > wantLate+work+work/2 {
			t.Errorf("request %d latency %v, want about %v", i, r.Latency, wantLate+work)
		}
	}
}

// Requests are sent on schedule, not after the previous reply: a slow
// request does not delay the send of one due later on a free connection.
func TestOpenLoopSendsOnSchedule(t *testing.T) {
	due := []time.Duration{0, 20 * time.Millisecond}
	start := time.Now()
	sentAt := make([]time.Duration, 2)
	openLoop(context.Background(), due, 2, func(ctx context.Context, i int) error {
		sentAt[i] = time.Since(start)
		if i == 0 {
			time.Sleep(100 * time.Millisecond)
		}
		return nil
	})
	if sentAt[1] > 60*time.Millisecond {
		t.Errorf("second request sent at %v, want about 20ms", sentAt[1])
	}
}

func TestOpenLoopCountsFailures(t *testing.T) {
	boom := errors.New("refused")
	due := make([]time.Duration, 6)
	res := openLoop(context.Background(), due, 2, func(ctx context.Context, i int) error {
		if i%3 == 0 {
			return boom
		}
		return nil
	})
	var f failures
	for _, r := range res {
		if r.Err != nil {
			f.add(r.Err)
		}
	}
	if f.Failed != 2 || len(f.Reasons) != 2 || f.Reasons[0] != "refused" {
		t.Errorf("failures = %+v, want 2 refused", f)
	}
}

func TestOpenLoopFailsUnsentRequestsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	due := []time.Duration{0, time.Hour}
	res := openLoop(ctx, due, 1, func(ctx context.Context, i int) error {
		cancel()
		return nil
	})
	if res[0].Err != nil || !errors.Is(res[1].Err, context.Canceled) {
		t.Errorf("errors = %v, %v; want nil, context.Canceled", res[0].Err, res[1].Err)
	}
}

func TestFailuresKeepFirstReasons(t *testing.T) {
	var f failures
	for i := 0; i < 3*maxReasons; i++ {
		f.add(errors.New("x"))
	}
	if f.Failed != 3*maxReasons || len(f.Reasons) != maxReasons {
		t.Errorf("failures = %d with %d reasons", f.Failed, len(f.Reasons))
	}
}
