package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// An open-loop generator sends request i at its due time start + i/rate,
// whether or not earlier requests have completed, from a fixed number of
// sender connections. A sender that falls behind sends late; latency is
// timed from the due time, so a stall also charges the wait it imposes on
// the requests queued behind it (no coordinated omission).

// dueAt is the send time of request i of a schedule at rate per second.
func dueAt(start time.Time, i int, rate float64) time.Time {
	return start.Add(time.Duration(float64(i) * 1e9 / rate))
}

// dueBy is how many of the schedule's n requests are due at now.
func dueBy(start, now time.Time, rate float64, n int) int {
	if now.Before(start) {
		return 0
	}
	k := int(now.Sub(start).Seconds()*rate) + 1
	return min(k, n)
}

// loadRun is the record of one open-loop phase.
type loadRun struct {
	rate       float64   // offered, requests per second
	lat        []float64 // per request, due time to response read, ms; +Inf when the request failed
	late       []float64 // per request, send time minus due time, ms
	failed     int
	backlogMax int // most requests due but not yet sent, seen at any send
	elapsed    time.Duration
}

// openLoop runs n = rate × dur requests through send from conns senders.
// send(sender, i) performs request i on the sender's own connection and
// reports whether it succeeded.
func openLoop(rate float64, dur time.Duration, conns int, send func(sender, i int) error) *loadRun {
	n := max(1, int(rate*dur.Seconds()))
	r := &loadRun{rate: rate, lat: make([]float64, n), late: make([]float64, n)}
	var next atomic.Int64
	var failed, backlog atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			localMax := 0
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					break
				}
				due := dueAt(start, i, rate)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				// Requests 0..i have been taken, so the ones due beyond them
				// are the backlog this sender leaves behind.
				localMax = max(localMax, dueBy(start, sent, rate, n)-i-1)
				err := send(c, i)
				r.late[i] = ms(sent.Sub(due))
				r.lat[i] = ms(time.Since(due))
				if err != nil {
					r.lat[i] = math.Inf(1)
					failed.Add(1)
				}
			}
			for {
				cur := backlog.Load()
				if int64(localMax) <= cur || backlog.CompareAndSwap(cur, int64(localMax)) {
					break
				}
			}
		}(c)
	}
	wg.Wait()
	r.elapsed = time.Since(start)
	r.failed = int(failed.Load())
	r.backlogMax = int(backlog.Load())
	return r
}

// latQ is the q-quantile of the phase's latencies, failures counting as
// infinitely slow.
func (r *loadRun) latQ(q float64) float64 { return quantile(sorted(r.lat), q) }

func (r *loadRun) lateQ(q float64) float64 { return quantile(sorted(r.late), q) }

// achieved is the completed-request rate over the phase.
func (r *loadRun) achieved() float64 {
	return float64(len(r.lat)-r.failed) / r.elapsed.Seconds()
}

// fellBehind reports whether the generator's backlog grew over the phase:
// the requests of its last tenth went out later than limitMS after their
// due time. A system that keeps up sends every request within timer slack
// of its due time; one that does not accumulates a queue whose wait grows
// with every request.
func fellBehind(late []float64, limitMS float64) bool {
	tail := late[len(late)-max(1, len(late)/10):]
	return median(tail) > limitMS
}

// meets reports whether a phase meets the latency limit at p99 without a
// growing backlog.
func (r *loadRun) meets(limitMS float64) bool {
	return r.latQ(0.99) <= limitMS && !fellBehind(r.late, limitMS)
}

// routeKey is one /route lookup.
type routeKey struct{ video, vho int }

// routeClient issues /route lookups against one server over at most conns
// keep-alive connections, one per sender, and keeps a deterministic sample
// of response bodies for checking against the snapshot they name.
type routeClient struct {
	base   string
	client *http.Client
	keys   []routeKey
	urls   []string
	bufs   []bytes.Buffer // one per sender

	mu      sync.Mutex
	samples []routeSample
}

// routeSample is one checked /route response.
type routeSample struct {
	key  routeKey
	body []byte
}

// sampleEvery picks which responses are kept for the byte check: request
// indices divisible by it, in every phase.
const sampleEvery = 37

func newRouteClient(base string, keys []routeKey, conns int) *routeClient {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	c := &routeClient{
		base:   base,
		client: &http.Client{Transport: tr, Timeout: 30 * time.Second},
		keys:   keys,
		urls:   make([]string, len(keys)),
		bufs:   make([]bytes.Buffer, conns),
	}
	for i, k := range keys {
		c.urls[i] = fmt.Sprintf("%s/route?video=%d&vho=%d", base, k.video, k.vho)
	}
	return c
}

// send performs lookup i (keys are reused cyclically) on behalf of sender.
func (c *routeClient) send(sender, i int) error {
	k := i % len(c.urls)
	resp, err := c.client.Get(c.urls[k])
	if err != nil {
		return err
	}
	buf := &c.bufs[sender]
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("route %v: status %d", c.keys[k], resp.StatusCode)
	}
	if i%sampleEvery == 0 {
		c.mu.Lock()
		c.samples = append(c.samples, routeSample{key: c.keys[k], body: bytes.Clone(buf.Bytes())})
		c.mu.Unlock()
	}
	return nil
}

// get fetches path and returns its body, failing on a non-200 status.
func (c *routeClient) get(path string) ([]byte, error) {
	resp, err := c.client.Get(c.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return body, nil
}

func (c *routeClient) close() { c.client.CloseIdleConnections() }

// ladderStep is one rate tried while searching for the highest sustainable
// rate.
type ladderStep struct {
	run *loadRun
	ok  bool
}

// ladder searches for the highest offered rate that meets limitMS at p99
// without a growing backlog. It doubles the rate from start until a step
// fails, then narrows between the last passing and the first failing rate
// by bisection, each step lasting step, until budget is spent. The result
// is the achieved rate of the best passing step (0 when none passed).
func ladder(start float64, limitMS float64, step, budget time.Duration, conns int, send func(sender, i int) error) (float64, []ladderStep) {
	var steps []ladderStep
	lo, hi := 0.0, math.Inf(1)
	best := 0.0
	rate := start
	deadline := time.Now().Add(budget)
	for time.Until(deadline) >= step {
		r := openLoop(rate, step, conns, send)
		ok := r.failed == 0 && r.meets(limitMS)
		steps = append(steps, ladderStep{run: r, ok: ok})
		if ok {
			lo = rate
			best = max(best, r.achieved())
		} else {
			hi = rate
		}
		if math.IsInf(hi, 1) {
			rate *= 2
		} else {
			rate = (lo + hi) / 2
			if lo == 0 {
				rate = hi / 2
			}
		}
	}
	sort.Slice(steps, func(a, b int) bool { return steps[a].run.rate < steps[b].run.rate })
	return best, steps
}
