package cluster

import (
	"repro/internal/sched"
	"repro/internal/wire"
)

// replicaCaller is the protocol client of one replica within one job: the
// in-process caller, recording the slave ID the shard master registered
// the replica under, so that a killed replica's tasks can be requeued
// (SlaveGone) once its loop has stopped. Registration is the loop's first
// call, and searchShard reads the ID only after the loop has returned.
type replicaCaller struct {
	wire.Caller
	id         sched.SlaveID
	registered bool
}

// Call implements wire.Caller.
func (c *replicaCaller) Call(req wire.Envelope) (wire.Envelope, error) {
	resp, err := c.Caller.Call(req)
	if err == nil && resp.RegisterAck != nil {
		c.id, c.registered = resp.RegisterAck.Slave, true
	}
	return resp, err
}
