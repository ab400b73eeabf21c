package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"runtime"
	"sync"
	"time"
)

// record is what the generator keeps for one request it sent.
type record struct {
	req             *request
	due, sent, done time.Time
	status          int
	body            []byte
	err             error
	failure         string // why verification rejected it; "" = verified
	roundtrip       int    // traced run: id of the request's http.roundtrip span
}

func (r *record) latency() time.Duration { return r.done.Sub(r.due) }

// newClient returns an HTTP client that keeps up to conns connections to
// the server alive, so a connection is set up once and not per request.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: clientTimeout,
		Transport: &http.Transport{
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
		},
	}
}

// send posts one request and fills in the record. With a recorder it
// also records the request's spans: client.request (due to done) with
// children client.send_lag and http.roundtrip.
func send(ctx context.Context, cl *http.Client, url string, r *request, due time.Time, rec *recorder) record {
	out := record{req: r, due: due, sent: time.Now()}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/search", bytes.NewReader(r.Body))
	if err == nil {
		hreq.Header.Set("Content-Type", "application/json")
		if r.Tenant != "" {
			hreq.Header.Set("X-Tenant", r.Tenant)
		}
		var resp *http.Response
		if resp, err = cl.Do(hreq); err == nil {
			out.status = resp.StatusCode
			out.body, err = io.ReadAll(resp.Body)
			_ = resp.Body.Close()
		}
	}
	out.err = err
	out.done = time.Now()
	if rec != nil {
		root := rec.add(0, r.Seq+1, "client.request", out.due, out.done)
		rec.add(root, r.Seq+1, "client.send_lag", out.due, out.sent)
		out.roundtrip = rec.add(root, r.Seq+1, "http.roundtrip", out.sent, out.done)
	}
	return out
}

// runClosed drives one client over one connection: whole cycles of the
// workload, back to back, until the window's time is up.
func runClosed(ctx context.Context, cl *http.Client, url string, g *generator, window time.Duration, rec *recorder) []record {
	var out []record
	start := time.Now()
	for time.Since(start) < window && ctx.Err() == nil {
		cycle := g.w.cycle(g)
		for i := range cycle {
			out = append(out, send(ctx, cl, url, &cycle[i], time.Now(), rec))
		}
	}
	return out
}

// spinWindow is how long before a due time the scheduler stops sleeping
// and spins: a plain time.Sleep woke 30-60 ms late on a loaded two-core
// machine, and open-loop latency is timed from the due time.
const spinWindow = 5 * time.Millisecond

// waitUntil returns at t, sleeping first and spinning the last stretch.
func waitUntil(ctx context.Context, t time.Time) {
	if d := time.Until(t) - spinWindow; d > 0 {
		select {
		case <-ctx.Done():
			return
		case <-time.After(d):
		}
	}
	for time.Now().Before(t) && ctx.Err() == nil {
		runtime.Gosched()
	}
}

// runOpen sends every request at its due time regardless of completions,
// from one scheduler goroutine with at most openLoopInFlight requests in
// flight, and returns once the last one is answered.
func runOpen(ctx context.Context, cl *http.Client, url string, reqs []request, rec *recorder) []record {
	out := make([]record, len(reqs))
	slots := make(chan struct{}, openLoopInFlight) // counting semaphore
	var wg sync.WaitGroup
	start := time.Now()
	for i := range reqs {
		due := start.Add(reqs[i].Due)
		waitUntil(ctx, due)
		select {
		case slots <- struct{}{}:
		case <-ctx.Done():
		}
		if ctx.Err() != nil {
			out[i] = record{req: &reqs[i], due: due, sent: due, done: due, err: ctx.Err()}
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = send(ctx, cl, url, &reqs[i], due, rec)
			<-slots
		}(i)
	}
	//swcheck:ignore ctxflow every joined send carries ctx in its HTTP request, so cancellation already unblocks this join; returning before it would race on out
	wg.Wait()
	return out
}
