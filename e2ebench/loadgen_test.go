package main

import (
	"errors"
	"math"
	"testing"
	"time"
)

func TestScheduleArithmetic(t *testing.T) {
	start := time.Unix(100, 0)
	if got := dueAt(start, 250, 1000).Sub(start); got != 250*time.Millisecond {
		t.Errorf("request 250 at 1000/s due after %v, want 250ms", got)
	}
	for _, c := range []struct {
		after time.Duration
		want  int
	}{
		{-time.Millisecond, 0},
		{0, 1},                        // request 0 is due at start
		{999 * time.Microsecond, 1},   // request 1 not yet
		{time.Millisecond, 2},         // request 1 due now
		{10*time.Millisecond + 1, 11}, // requests 0..10
		{time.Hour, 50},               // capped at the schedule length
	} {
		if got := dueBy(start, start.Add(c.after), 1000, 50); got != c.want {
			t.Errorf("dueBy at +%v = %d, want %d", c.after, got, c.want)
		}
	}
}

// A stall charges every request queued behind it: latency is timed from the
// due time, so requests due during the stall report at least the part of
// the stall they waited through, and the backlog shows the queue.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const stall = 40 * time.Millisecond
	run := openLoop(1000, 100*time.Millisecond, 1, func(_, i int) error {
		if i == 0 {
			time.Sleep(stall)
		}
		return nil
	})
	if len(run.lat) != 100 || run.failed != 0 {
		t.Fatalf("ran %d requests with %d failures, want 100 and 0", len(run.lat), run.failed)
	}
	if run.lat[0] < ms(stall) {
		t.Errorf("stalled request latency %.3f ms, want ≥ %v", run.lat[0], stall)
	}
	// Request 10 was due at 10 ms and could not be sent before the stall
	// ended at 40 ms.
	if run.late[10] < 29 || run.lat[10] < run.late[10] {
		t.Errorf("request 10: late %.3f ms, latency %.3f ms; want late ≥ 29 ms and latency ≥ late", run.late[10], run.lat[10])
	}
	if run.backlogMax < 30 {
		t.Errorf("backlog max %d, want ≥ 30 requests queued behind a 40 ms stall at 1000/s", run.backlogMax)
	}
	// The queue drains once the stall ends, so the backlog did not grow
	// over the phase.
	if fellBehind(run.late, 20) {
		t.Errorf("a drained queue reported as growing; late tail %v", run.late[90:])
	}
}

func TestOpenLoopSaturatedBacklogGrows(t *testing.T) {
	// Each request takes 2 ms on one connection at 1000/s offered: the
	// generator can serve only half the schedule and its queue grows.
	run := openLoop(1000, 200*time.Millisecond, 1, func(_, i int) error {
		time.Sleep(2 * time.Millisecond)
		return nil
	})
	if !fellBehind(run.late, 20) {
		t.Errorf("saturated phase not flagged; late tail %v", run.late[180:])
	}
	if run.meets(20) {
		t.Error("saturated phase meets the latency limit")
	}
	if a := run.achieved(); a > 600 {
		t.Errorf("achieved %.0f rps, want about 500", a)
	}
}

func TestOpenLoopFailuresMissTheLimit(t *testing.T) {
	run := openLoop(2000, 50*time.Millisecond, 2, func(_, i int) error {
		if i%10 == 0 {
			return errors.New("refused")
		}
		return nil
	})
	if run.failed != 10 {
		t.Errorf("failed = %d, want 10 of 100", run.failed)
	}
	if !math.IsInf(run.latQ(0.95), 1) {
		t.Errorf("p95 with 10%% failures = %v, want +Inf", run.latQ(0.95))
	}
	if run.meets(1e9) {
		t.Error("a phase with failures meets the limit")
	}
}
