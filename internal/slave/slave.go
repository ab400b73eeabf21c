package slave

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/sched"
	"repro/internal/seq"
	"repro/internal/wire"
)

// Options tunes the slave loop.
type Options struct {
	// NotifyEvery is the minimum interval between progress notifications.
	NotifyEvery time.Duration
	// Poll is how long to stand by before re-asking when the master had
	// nothing for us.
	Poll time.Duration
	// TopK bounds how many hits per task travel back to the master;
	// 0 means all.
	TopK int

	// Reconnect re-establishes the master connection after a failed call.
	// When set, Run survives transient faults: it closes the broken
	// caller, backs off, dials a fresh one through this function and
	// re-registers under a new SlaveID (the master's lease expires the old
	// one, requeueing any task this slave was holding). That is what lets
	// a slave ride out a master restart from checkpoint, or its own lease
	// expiry after a long stall. nil keeps the historical behaviour: the
	// first failed call aborts Run.
	Reconnect func() (wire.Caller, error)
	// MaxRetries bounds *consecutive* failed reconnect attempts before Run
	// gives up; the counter resets whenever a session completes a round
	// trip. <=0 means DefaultMaxRetries.
	MaxRetries int
	// Backoff shapes the delay between reconnect attempts; zero fields
	// fall back to wire.DefaultBackoff.
	Backoff wire.Backoff
	// RetrySeed seeds the backoff jitter so tests are reproducible; 0
	// seeds from the wall clock.
	RetrySeed int64
	// Sleep, when non-nil, replaces time.Sleep for the reconnect backoff
	// and the standby poll. Tests inject a virtual clock here so retry
	// schedules are asserted on instead of waited out; nil uses the wall
	// clock.
	Sleep func(time.Duration)
	// Context ends the session once it is done: the in-flight scan is
	// aborted through its task's context, the rest of the grant is skipped
	// and a standby ends early, and Run returns nil without sending the
	// master another Request as soon as the engine next checks cancel. A
	// FarrarEngine range task checks it every progressChunk (about 4
	// million) cells of lane or striped work, which on the benchmark
	// database is hundreds of sequences, and a filtered task between its
	// prefilter and its rescore (TestSearchRangeCancelWithinChunk).
	// Without it a slave learns the job is over from its next
	// acknowledgement — a progress notification at the earliest — which a
	// task shorter than the notification interval never sends. An
	// in-process fleet cancels it when the job ends, the search is
	// cancelled or the replica is killed; a TCP slave has none and polls.
	// nil means context.Background().
	Context context.Context

	// Metrics records task wall times, cells reported, reconnections and
	// backoff sleeps (see NewMetrics); nil means NewMetrics(nil), the
	// uninstrumented bundle.
	Metrics *Metrics
}

// DefaultMaxRetries is the consecutive-reconnect-failure budget when
// Options.MaxRetries is unset.
const DefaultMaxRetries = 5

func (o *Options) fill() {
	if o.NotifyEvery <= 0 {
		o.NotifyEvery = 500 * time.Millisecond
	}
	if o.Poll <= 0 {
		o.Poll = 200 * time.Millisecond
	}
	if o.MaxRetries <= 0 {
		o.MaxRetries = DefaultMaxRetries
	}
	if o.RetrySeed == 0 {
		o.RetrySeed = time.Now().UnixNano()
	}
	if o.Sleep == nil {
		o.Sleep = time.Sleep
	}
	if o.Metrics == nil {
		o.Metrics = NewMetrics(nil)
	}
	if o.Context == nil {
		o.Context = context.Background()
	}
}

// standby waits out one poll interval, or less when the job ends first.
// A context that is never done waits on Options.Sleep, so a test's
// virtual clock still drives it.
func (o *Options) standby() {
	done := o.Context.Done()
	if done == nil {
		o.Sleep(o.Poll)
		return
	}
	t := time.NewTimer(o.Poll)
	defer t.Stop()
	select {
	case <-done:
	case <-t.C:
	}
}

// Run registers the engine with the master behind caller and executes the
// request/execute/notify loop until the master reports the job done or
// Options.Context is done. Each task runs under its own child of that
// context, which an acknowledgement naming the task cancels. It returns
// the number of tasks this slave completed (accepted or not), summed
// across reconnections when Options.Reconnect is set.
func Run(caller wire.Caller, eng Engine, opts Options) (int, error) {
	opts.fill()
	rng := rand.New(rand.NewSource(opts.RetrySeed))
	completed := 0
	failures := 0
	for {
		n, progressed, err := runSession(caller, eng, opts)
		completed += n
		if err == nil {
			return completed, nil
		}
		if opts.Reconnect == nil {
			return completed, err
		}
		if progressed {
			// The dead master was reachable for a while; treat this as a
			// fresh outage rather than a continuation of the last one.
			failures = 0
		}
		_ = caller.Close()
		for {
			if failures >= opts.MaxRetries {
				return completed, fmt.Errorf("slave: giving up after %d reconnect attempts: %w", failures, err)
			}
			delay := opts.Backoff.Delay(failures, rng)
			opts.Metrics.BackoffSleeps.Inc()
			opts.Metrics.BackoffSeconds.Add(delay.Seconds())
			opts.Sleep(delay)
			failures++
			next, derr := opts.Reconnect()
			if derr != nil {
				err = derr
				continue
			}
			caller = next
			opts.Metrics.Reconnects.Inc()
			break
		}
	}
}

// runSession is one connection's worth of the slave loop: register, then
// request/execute/notify until the job finishes, Options.Context is done
// or a call fails.
// progressed reports whether any call succeeded, which gates the
// reconnect-failure counter reset in Run.
func runSession(caller wire.Caller, eng Engine, opts Options) (completed int, progressed bool, err error) {
	resp, err := caller.Call(wire.Envelope{Register: &wire.RegisterMsg{
		Name:          eng.Name(),
		Kind:          eng.Kind(),
		DeclaredSpeed: eng.DeclaredSpeed(),
	}})
	if err != nil {
		return 0, false, err
	}
	if resp.RegisterAck == nil {
		return 0, true, fmt.Errorf("slave: master did not acknowledge registration")
	}
	id := resp.RegisterAck.Slave

	var filters FilterCache
	defer filters.release()
	for {
		if opts.Context.Err() != nil {
			return completed, true, nil
		}
		resp, err := caller.Call(wire.Envelope{Request: &wire.RequestMsg{Slave: id}})
		if err != nil {
			return completed, true, err
		}
		a := resp.Assign
		if a == nil {
			return completed, true, fmt.Errorf("slave: unexpected response to Request")
		}
		if a.Done {
			return completed, true, nil
		}
		if len(a.Tasks) == 0 {
			opts.standby()
			continue
		}
		// skip holds the tasks of this grant that an ack canceled before
		// they ran. The master cancels only tasks this slave holds, and it
		// holds only this grant's, so the set dies with the grant.
		skip := map[sched.TaskID]bool{}
		for _, spec := range a.Tasks {
			if opts.Context.Err() != nil {
				return completed, true, nil
			}
			if skip[spec.ID] {
				continue
			}
			done, finished, err := runTask(caller, eng, id, spec, skip, &filters, opts)
			if err != nil {
				return completed, true, err
			}
			if done {
				completed++
			}
			if finished {
				return completed, true, nil
			}
		}
	}
}

// runTask executes one task under a child of Options.Context, streaming
// progress notifications and honoring cancellations piggybacked on their
// acknowledgements: one that names this task cancels its context, which
// aborts the scan, and one that names another task of the grant adds it to
// skip.
func runTask(caller wire.Caller, eng Engine, id sched.SlaveID, spec wire.TaskSpec, skip map[sched.TaskID]bool, filters *FilterCache, opts Options) (completed, jobDone bool, err error) {
	ctx, cancel := context.WithCancel(opts.Context)
	defer cancel()
	drop := func(ids []sched.TaskID) {
		for _, t := range ids {
			if t == spec.ID {
				cancel()
			} else {
				skip[t] = true
			}
		}
	}
	query := &seq.Sequence{ID: spec.QueryID, Residues: spec.Residues}
	var callErr error
	taskStart := time.Now()
	lastNotify := taskStart
	var lastCells int64
	progress := func(cells int64) {
		now := time.Now()
		elapsed := now.Sub(lastNotify)
		if elapsed < opts.NotifyEvery || callErr != nil {
			return
		}
		delta := cells - lastCells
		rate := float64(delta) / elapsed.Seconds()
		resp, err := caller.Call(wire.Envelope{Progress: &wire.ProgressMsg{Slave: id, Rate: rate, Cells: delta}})
		if err != nil {
			callErr = err
			// A dead master can no longer cancel this task, so cancel it
			// ourselves: canceling the task's context aborts the
			// in-flight engine scan instead of grinding out the rest of
			// the database for a peer that will never hear the result.
			cancel()
			return
		}
		if resp.ProgressAck != nil {
			drop(resp.ProgressAck.Cancel)
		}
		if delta > 0 {
			opts.Metrics.Cells.Add(float64(delta))
		}
		lastNotify, lastCells = now, cells
	}

	hits, tally, err := runStage(eng, spec, query, opts.TopK, filters, progress, ctx.Done())
	if callErr != nil {
		return false, false, callErr
	}
	if err == ErrCanceled {
		return false, false, nil
	}
	if err != nil {
		return false, false, fmt.Errorf("slave: task %d: %w", spec.ID, err)
	}
	top := TopK(hits, opts.TopK)
	// The completion carries the final progress delta: everything since
	// the last notification. Only timer-gated notifications went out
	// above, so without this the tail of every task — or all of a short
	// one — never reached the master's speed and backlog accounting.
	finalCells := spec.Cells - lastCells
	var finalRate float64
	if el := time.Since(lastNotify); el > 0 && finalCells > 0 {
		finalRate = float64(finalCells) / el.Seconds()
	}
	if finalCells < 0 {
		finalCells = 0
	}
	resp, err := caller.Call(wire.Envelope{Complete: &wire.CompleteMsg{
		Slave: id, Task: spec.ID, Hits: top, Cells: finalCells, Rate: finalRate, Filter: tally,
	}})
	if err != nil {
		return false, false, err
	}
	opts.Metrics.TaskSeconds.Observe(time.Since(taskStart).Seconds())
	opts.Metrics.Cells.Add(float64(finalCells))
	if resp.CompleteAck != nil {
		drop(resp.CompleteAck.Cancel)
		jobDone = resp.CompleteAck.Done
	}
	return true, jobDone, nil
}
