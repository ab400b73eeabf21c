package cluster

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/sched"
	"repro/internal/wire"
)

// replicaCaller is the protocol client of one replica within one job. It
// layers two failure behaviours over the in-process caller:
//
//   - Replica death: once the replica's down channel closes, every call
//     fails — the first failure reports SlaveGone to the shard master
//     (requeueing the replica's tasks, exactly like a dropped TCP
//     connection) and counts one failover. The failed call also makes the
//     slave loop cancel its in-flight scan and exit.
//   - Context cancellation: a cancelled context answers work requests with
//     Done (no new tasks start) and progress notifications with a
//     cancellation of every task still assigned here, which closes the
//     engine's cancel channel and aborts the in-flight scan — the same path
//     a replica's victory uses — so the whole fleet winds down promptly
//     without failing the master's accounting.
type replicaCaller struct {
	ctx        context.Context
	inner      wire.Caller
	handler    wire.Handler
	rep        *replica
	onFailover func()
	goneOnce   sync.Once

	mu         sync.Mutex
	id         sched.SlaveID
	registered bool
	downSeen   bool
	// pending are tasks assigned through this caller and not yet finished
	// with (completed, or cancelled by the master or the context).
	pending map[sched.TaskID]bool
}

func newReplicaCaller(ctx context.Context, rep *replica, inner wire.Caller, handler wire.Handler, onFailover func()) *replicaCaller {
	return &replicaCaller{
		ctx: ctx, inner: inner, handler: handler, rep: rep,
		onFailover: onFailover, pending: map[sched.TaskID]bool{},
	}
}

// Call implements wire.Caller.
func (c *replicaCaller) Call(req wire.Envelope) (wire.Envelope, error) {
	select {
	case <-c.rep.down:
		c.gone()
		return wire.Envelope{}, fmt.Errorf("cluster: replica %s is down", c.rep.eng.Name())
	default:
	}
	if c.ctx.Err() != nil {
		switch {
		case req.Request != nil:
			return wire.Envelope{Assign: &wire.AssignMsg{Done: true}}, nil
		case req.Progress != nil:
			return wire.Envelope{ProgressAck: &wire.ProgressAckMsg{
				Cancel: c.takePending(), Done: true,
			}}, nil
		}
		// Register and Complete still reach the shard master: registration
		// is the session's first call, and completions that beat the
		// cancellation keep the coordinator's books straight.
	}
	resp, err := c.inner.Call(req)
	if err != nil {
		return resp, err
	}
	c.track(req, resp)
	return resp, nil
}

// gone reports the replica's death to the shard master exactly once,
// requeueing any task it was executing and recording the failover.
func (c *replicaCaller) gone() {
	c.goneOnce.Do(func() {
		c.mu.Lock()
		c.downSeen = true
		registered, id := c.registered, c.id
		c.mu.Unlock()
		if registered {
			c.handler.SlaveGone(id)
		}
		if c.onFailover != nil {
			c.onFailover()
		}
	})
}

// Down reports whether this caller has observed its replica's death —
// which makes the slave loop's terminal error expected rather than a
// shard failure.
func (c *replicaCaller) Down() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.downSeen
}

// track maintains the slave identity and pending-task set from the live
// protocol flow.
func (c *replicaCaller) track(req, resp wire.Envelope) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if req.Register != nil && resp.RegisterAck != nil {
		c.id = resp.RegisterAck.Slave
		c.registered = true
	}
	if resp.Assign != nil {
		for _, t := range resp.Assign.Tasks {
			c.pending[t.ID] = true
		}
	}
	if req.Complete != nil {
		delete(c.pending, req.Complete.Task)
	}
	var cancels []sched.TaskID
	if resp.ProgressAck != nil {
		cancels = resp.ProgressAck.Cancel
	}
	if resp.CompleteAck != nil {
		cancels = resp.CompleteAck.Cancel
	}
	for _, id := range cancels {
		delete(c.pending, id)
	}
}

// takePending drains the pending-task set for a synthetic cancellation ack.
func (c *replicaCaller) takePending() []sched.TaskID {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]sched.TaskID, 0, len(c.pending))
	for id := range c.pending {
		out = append(out, id)
	}
	c.pending = map[sched.TaskID]bool{}
	return out
}

// Close implements wire.Caller.
func (c *replicaCaller) Close() error { return c.inner.Close() }
