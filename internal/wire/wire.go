// Package wire defines the master/slave protocol of the task execution
// environment (§IV, Fig. 4) and its transports.
//
// The protocol is strictly slave-initiated request/response, matching the
// paper's design where slaves register, ask for work, notify progress and
// deliver results:
//
//	Register  -> RegisterAck        announce name/kind/declared speed
//	Request   -> Assign             ask for tasks (normal or replica)
//	Progress  -> ProgressAck        periodic rate notification
//	Complete  -> CompleteAck        deliver one task's hits
//
// Cancellations (a replica elsewhere finished first) piggyback on
// ProgressAck and CompleteAck, so the wire needs no server push and the
// same code runs over TCP (gob-encoded, one connection per slave) or
// in-process (direct dispatch), mirroring the paper's two-host Gigabit
// Ethernet setup and single-host runs respectively. The one event that is
// pushed — the end of a slave's session, when its job ends, its search is
// cancelled or the slave is killed — travels outside the protocol: an
// in-process slave is handed a stop channel (slave.Options.Done), and
// nothing answers it with made-up messages in the master's name.
package wire

import (
	"encoding/gob"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/prefilter"
	"repro/internal/sched"
)

// Hit is the score of one query against one database sequence. When the
// slave ran the traceback phase for this hit (slave.Options.AlignBest), the
// alignment rows travel along.
type Hit struct {
	SeqID string
	Index int // position in the database
	Score int

	// Optional phase-2 payload: aligned rows with '-' gaps, plus the
	// 0-based half-open coordinates of the aligned regions.
	QueryRow, TargetRow    []byte
	QueryStart, QueryEnd   int
	TargetStart, TargetEnd int
}

// TaskSpec is a task as shipped to a slave: the query travels with the
// assignment (queries are small; the database is resident on the slave).
type TaskSpec struct {
	ID       sched.TaskID
	QueryID  string
	Residues []byte
	Cells    int64
	// Lo and Hi restrict the task to the sequence-index range [Lo, Hi)
	// of the slave's resident database. The gob zero value (Hi == 0) is the
	// whole database, so masters and slaves from before range tasks
	// interoperate unchanged.
	Lo, Hi int

	// TaskKind selects the slave's execution path. The gob zero value is
	// sched.TaskSW, so masters and slaves from before the filtered-search
	// pipeline interoperate unchanged.
	TaskKind sched.TaskKind
	// Filter carries the prefilter parameters of a TaskFiltered task.
	Filter *prefilter.Spec
}

// RegisterMsg announces a slave.
type RegisterMsg struct {
	Name          string
	Kind          sched.SlaveKind
	DeclaredSpeed float64
}

// RegisterAckMsg returns the slave's ID.
type RegisterAckMsg struct {
	Slave sched.SlaveID
}

// RequestMsg asks for work.
type RequestMsg struct {
	Slave sched.SlaveID
}

// AssignMsg grants work. With no tasks: Done means the job is over, and
// Standby means ask again later.
type AssignMsg struct {
	Tasks   []TaskSpec
	Replica bool
	Standby bool
	Done    bool
}

// ProgressMsg is a periodic notification: measured rate and cells processed
// since the previous notification.
type ProgressMsg struct {
	Slave sched.SlaveID
	Rate  float64
	Cells int64
}

// ProgressAckMsg acknowledges progress; Cancel lists tasks the slave should
// abandon because another copy finished first.
type ProgressAckMsg struct {
	Cancel []sched.TaskID
	Done   bool // the whole job finished; stop working
}

// CompleteMsg delivers one finished task. Rate and Cells carry the final
// progress delta — the work done since the slave's last periodic
// notification — so the master's speed estimates and backlog accounting do
// not undercount short tasks whose last (or only) stretch of work never
// made it into a ProgressMsg.
type CompleteMsg struct {
	Slave sched.SlaveID
	Task  sched.TaskID
	Hits  []Hit
	Rate  float64 // measured cells/second over the final delta; 0 = unknown
	Cells int64   // cells processed since the previous notification

	// Filter is a finished TaskFiltered task's accounting; zero for other
	// kinds.
	Filter prefilter.Tally
}

// CompleteAckMsg reports whether the result was accepted (first completion)
// and piggybacks cancellations.
type CompleteAckMsg struct {
	Accepted bool
	Cancel   []sched.TaskID
	Done     bool // the whole job finished; no need to ask again
}

// Envelope is the gob-friendly union of all protocol messages: exactly one
// field is non-zero.
type Envelope struct {
	Register    *RegisterMsg
	RegisterAck *RegisterAckMsg
	Request     *RequestMsg
	Assign      *AssignMsg
	Progress    *ProgressMsg
	ProgressAck *ProgressAckMsg
	Complete    *CompleteMsg
	CompleteAck *CompleteAckMsg
	Error       string
}

// Caller is a strict request/response client: every Call sends one envelope
// and receives one. Implementations must be safe for sequential use by one
// slave; they need not support concurrent Calls.
type Caller interface {
	Call(req Envelope) (Envelope, error)
	Close() error
}

// Handler is the master side: one envelope in, one envelope out.
type Handler interface {
	Dispatch(req Envelope) Envelope
	// SlaveGone tells the master a slave's connection died so its tasks
	// can be requeued.
	SlaveGone(id sched.SlaveID)
}

// Local is an in-process Caller wired straight to a Handler.
type Local struct {
	H Handler
}

// Call implements Caller.
func (l Local) Call(req Envelope) (Envelope, error) { return l.H.Dispatch(req), nil }

// Close implements Caller.
func (l Local) Close() error { return nil }

// Client is a TCP Caller speaking gob.
type Client struct {
	// Timeout bounds each Call's network I/O: the whole send+receive round
	// trip must finish within it or the call fails with a deadline error.
	// The master answers every request immediately, so a tripped deadline
	// means a hung or partitioned master, and the gob stream is no longer
	// usable — re-dial before calling again. Zero disables deadlines.
	Timeout time.Duration

	// conn is set once at Dial and never reassigned, so Close can read it
	// without mu and interrupt a Call blocked mid-receive.
	conn net.Conn

	mu  sync.Mutex
	enc *gob.Encoder
	dec *gob.Decoder
}

// Dial connects to a master at addr.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn, enc: gob.NewEncoder(conn), dec: gob.NewDecoder(conn)}, nil
}

// DialTimeout connects to a master at addr, bounding both the connection
// attempt and every subsequent Call's I/O by timeout.
func DialTimeout(addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn, enc: gob.NewEncoder(conn), dec: gob.NewDecoder(conn), Timeout: timeout}, nil
}

// Call implements Caller.
func (c *Client) Call(req Envelope) (Envelope, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.Timeout > 0 {
		// A failed SetDeadline means a dead connection, which the Encode
		// just below reports with a more useful error.
		_ = c.conn.SetDeadline(time.Now().Add(c.Timeout))
	}
	if err := c.enc.Encode(&req); err != nil {
		return Envelope{}, fmt.Errorf("wire: send: %w", err)
	}
	var resp Envelope
	if err := c.dec.Decode(&resp); err != nil {
		return Envelope{}, fmt.Errorf("wire: recv: %w", err)
	}
	if resp.Error != "" {
		return resp, fmt.Errorf("wire: master: %s", resp.Error)
	}
	return resp, nil
}

// Close implements Caller.
func (c *Client) Close() error { return c.conn.Close() }

// Serve accepts slave connections on l and pumps their envelopes through h
// until the listener closes. Each connection is one slave; when it drops,
// h.SlaveGone is called with the slave ID it registered (if any).
func Serve(l net.Listener, h Handler) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		go serveConn(conn, h)
	}
}

func serveConn(conn net.Conn, h Handler) {
	defer conn.Close()
	enc := gob.NewEncoder(conn)
	dec := gob.NewDecoder(conn)
	slave := sched.SlaveID(-1)
	for {
		var req Envelope
		if err := dec.Decode(&req); err != nil {
			if slave >= 0 {
				h.SlaveGone(slave)
			}
			return
		}
		resp := h.Dispatch(req)
		if req.Register != nil && resp.RegisterAck != nil {
			slave = resp.RegisterAck.Slave
		}
		if err := enc.Encode(&resp); err != nil {
			if slave >= 0 {
				h.SlaveGone(slave)
			}
			return
		}
	}
}
