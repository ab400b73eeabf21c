package slave

import (
	"fmt"
	"math/rand"
	"sync"
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
	// AlignBest runs the traceback phase for the best hit of every task
	// (engines implementing Aligner only) and ships the alignment rows.
	AlignBest bool

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
	// Done, when non-nil, ends the session: once it closes, the in-flight
	// scan is aborted through its cancel channel, queued tasks are skipped
	// and a standby ends early, and Run returns nil without sending the
	// master another Request as soon as the engine next checks cancel. A
	// FarrarEngine range task checks it every progressChunk (about 4
	// million) cells of lane or striped work, which on the benchmark
	// database is hundreds of sequences, and a filtered task between its
	// prefilter and its rescore (TestSearchRangeCancelWithinChunk).
	// Without it a slave learns the job is over from its next
	// acknowledgement — a progress notification at the earliest — which a
	// task shorter than the notification interval never sends. An
	// in-process fleet closes it when the job ends, the search is
	// cancelled or the replica is killed; a TCP slave has none and polls.
	Done <-chan struct{}

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
}

// standby waits out one poll interval, or less when the job ends first.
func (o *Options) standby() {
	if o.Done == nil {
		o.Sleep(o.Poll)
		return
	}
	t := time.NewTimer(o.Poll)
	defer t.Stop()
	select {
	case <-o.Done:
	case <-t.C:
	}
}

// Run registers the engine with the master behind caller and executes the
// request/execute/notify loop until the master reports the job done. It
// returns the number of tasks this slave completed (accepted or not),
// summed across reconnections when Options.Reconnect is set.
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
// request/execute/notify until the job finishes, Options.Done closes or a
// call fails.
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

	canceled := newCancelSet()
	var filters FilterCache
	defer filters.release()
	if testCancelSet != nil {
		testCancelSet(canceled)
	}
	if opts.Done != nil {
		sessionOver := make(chan struct{})
		defer close(sessionOver)
		go func() {
			select {
			case <-opts.Done:
				canceled.cancelAll()
			case <-sessionOver:
			}
		}()
	}
	for {
		select {
		case <-opts.Done:
			return completed, true, nil
		default:
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
		for _, spec := range a.Tasks {
			select {
			case <-opts.Done:
				return completed, true, nil
			default:
			}
			if canceled.has(spec.ID) {
				canceled.forget(spec.ID)
				continue
			}
			done, finished, err := runTask(caller, eng, id, spec, canceled, &filters, opts)
			// Canceled or completed tasks never run again on this slave
			// (the master only cancels finished tasks), so their cancel
			// bookkeeping can go — before this pruning, the ids/chans maps
			// grew for the life of the process.
			canceled.forget(spec.ID)
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

// runTask executes one task, streaming progress notifications and honoring
// cancellations: of this task, piggybacked on their acknowledgements, and
// of everything once the job is over (Options.Done).
func runTask(caller wire.Caller, eng Engine, id sched.SlaveID, spec wire.TaskSpec, canceled *cancelSet, filters *FilterCache, opts Options) (completed, jobDone bool, err error) {
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
			// ourselves: closing the task's cancel channel aborts the
			// in-flight engine scan instead of grinding out the rest of
			// the database for a peer that will never hear the result.
			canceled.add([]sched.TaskID{spec.ID})
			return
		}
		if resp.ProgressAck != nil {
			canceled.add(resp.ProgressAck.Cancel)
		}
		if delta > 0 {
			opts.Metrics.Cells.Add(float64(delta))
		}
		lastNotify, lastCells = now, cells
	}

	hits, tally, err := runStage(eng, spec, query, opts.TopK, filters, progress, canceled.channelFor(spec.ID))
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
	if opts.AlignBest && len(top) > 0 && top[0].Score > 0 {
		if al, ok := eng.(Aligner); ok {
			if a, err := al.AlignHit(query, top[0].Index); err == nil {
				top[0].QueryRow, top[0].TargetRow = a.QueryRow, a.TargetRow
				top[0].QueryStart, top[0].QueryEnd = a.QueryStart, a.QueryEnd
				top[0].TargetStart, top[0].TargetEnd = a.TargetStart, a.TargetEnd
			}
		}
	}
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
		canceled.add(resp.CompleteAck.Cancel)
		jobDone = resp.CompleteAck.Done
	}
	return true, jobDone, nil
}

// testCancelSet, when set by a test, receives each session's cancelSet so
// the pruning behaviour can be asserted from outside runSession.
var testCancelSet func(*cancelSet)

// cancelSet tracks canceled task IDs and exposes a close-once channel per
// task so engines can abort mid-scan. Entries are pruned (forget) once
// their task is done with on this slave, so the set stays bounded in
// long-running slaves.
type cancelSet struct {
	mu    sync.Mutex
	ids   map[sched.TaskID]bool
	chans map[sched.TaskID]chan struct{}
	// all is set once the job is over (Options.Done): every task, known
	// or yet to be looked up, counts as canceled.
	all bool
}

func newCancelSet() *cancelSet {
	return &cancelSet{ids: map[sched.TaskID]bool{}, chans: map[sched.TaskID]chan struct{}{}}
}

func (c *cancelSet) add(ids []sched.TaskID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, id := range ids {
		if c.ids[id] {
			continue
		}
		c.ids[id] = true
		if ch, ok := c.chans[id]; ok {
			close(ch)
		}
	}
}

// cancelAll cancels every task of the session, closing the cancel channel
// of whichever is in flight.
func (c *cancelSet) cancelAll() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.all = true
	for id, ch := range c.chans {
		if !c.ids[id] {
			c.ids[id] = true
			close(ch)
		}
	}
}

func (c *cancelSet) has(id sched.TaskID) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.all || c.ids[id]
}

// forget drops a task's bookkeeping once the slave is done with it —
// completed, skipped or canceled. The master only cancels tasks that
// finished elsewhere, and finished tasks are never re-assigned, so a
// forgotten ID cannot come back.
func (c *cancelSet) forget(id sched.TaskID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.ids, id)
	delete(c.chans, id)
}

// size reports how many tasks the set still tracks (tests).
func (c *cancelSet) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.ids) > len(c.chans) {
		return len(c.ids)
	}
	return len(c.chans)
}

func (c *cancelSet) channelFor(id sched.TaskID) <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	ch, ok := c.chans[id]
	if !ok {
		ch = make(chan struct{})
		c.chans[id] = ch
		if c.all || c.ids[id] {
			c.ids[id] = true
			close(ch)
		}
	}
	return ch
}
