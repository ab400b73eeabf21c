package metrics

import (
	"encoding/json"
	"io"
	"sync"
)

// Event is one line of a structured scheduler event stream: the wall-clock
// master's event log and the discrete-event runner's exported trace
// (platform.TraceEvent is this type) write the same JSON lines, so one jq
// filter or pandas loader reads both.
type Event struct {
	Kind    string  `json:"kind"`
	TimeSec float64 `json:"t"`
	PE      string  `json:"pe,omitempty"`

	// assign
	Tasks   []int `json:"tasks,omitempty"`
	Replica bool  `json:"replica,omitempty"`

	// sample
	GCUPS float64 `json:"gcups,omitempty"`

	// exec (one task occupancy window)
	Task      int     `json:"task,omitempty"`
	EndSec    float64 `json:"end,omitempty"`
	Completed bool    `json:"completed,omitempty"`

	// assign and exec of one database-range task: the query and the
	// half-open sequence-index range it scans (absent on whole-database
	// tasks).
	Query string `json:"query,omitempty"`
	Lo    int    `json:"lo,omitempty"`
	Hi    int    `json:"hi,omitempty"`

	// summary (one per PE plus one overall with PE == "")
	CellsDone   int64   `json:"cells,omitempty"`
	TasksWon    int     `json:"won,omitempty"`
	BusySec     float64 `json:"busy_s,omitempty"`
	MakespanSec float64 `json:"makespan_s,omitempty"`
	TotalGCUPS  float64 `json:"total_gcups,omitempty"`

	// stage (one filtered-search stage completed for one query)
	Stage       string  `json:"stage,omitempty"`
	Windows     int     `json:"windows,omitempty"`
	Selectivity float64 `json:"selectivity,omitempty"`
}

// Event kinds.
const (
	EventAssign  = "assign"
	EventSample  = "sample"
	EventExec    = "exec"
	EventSummary = "summary"
	EventStage   = "stage"
)

// EventLog serialises events as JSON lines to a writer. It is safe for
// concurrent Emit from any number of goroutines; a nil *EventLog discards
// events, so call sites need no guards.
type EventLog struct {
	mu  sync.Mutex
	enc *json.Encoder
}

// NewEventLog writes events to w (one JSON object per line).
func NewEventLog(w io.Writer) *EventLog {
	return &EventLog{enc: json.NewEncoder(w)}
}

// Emit writes one event line. Emitting on a nil log is a no-op.
func (l *EventLog) Emit(e Event) error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.enc.Encode(e)
}
