package platform

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/metrics"
	"repro/internal/sched"
)

// TraceEvent is one line of an exported run trace: the same shape the
// wall-clock master's event log writes. Traces are JSON-lines so standard
// tooling (jq, pandas) can consume them.
type TraceEvent = metrics.Event

// WriteTrace streams the run as JSON lines: every assignment interaction,
// every throughput sample, per-PE summaries and the overall summary.
func WriteTrace(w io.Writer, res *Result) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	name := func(id sched.SlaveID) string {
		if int(id) < len(res.PerPE) {
			return res.PerPE[id].Name
		}
		return fmt.Sprintf("pe%d", id)
	}
	for _, a := range res.Assignments {
		ids := make([]int, len(a.Tasks))
		for i, t := range a.Tasks {
			ids[i] = int(t)
		}
		if err := enc.Encode(TraceEvent{
			Kind: metrics.EventAssign, TimeSec: a.Time.Seconds(), PE: name(a.Slave),
			Tasks: ids, Replica: a.Replica,
		}); err != nil {
			return err
		}
	}
	for _, pe := range res.PerPE {
		for _, s := range pe.Timeline {
			if err := enc.Encode(TraceEvent{
				Kind: metrics.EventSample, TimeSec: s.T.Seconds(), PE: pe.Name, GCUPS: s.Rate / 1e9,
			}); err != nil {
				return err
			}
		}
		for _, ex := range pe.Executions {
			if err := enc.Encode(TraceEvent{
				Kind: metrics.EventExec, PE: pe.Name, Task: int(ex.Task),
				TimeSec: ex.Start.Seconds(), EndSec: ex.End.Seconds(),
				Completed: ex.Completed, Replica: ex.Replica,
			}); err != nil {
				return err
			}
		}
	}
	for _, pe := range res.PerPE {
		if err := enc.Encode(TraceEvent{
			Kind: metrics.EventSummary, PE: pe.Name,
			CellsDone: pe.CellsDone, TasksWon: pe.TasksWon, BusySec: pe.Busy.Seconds(),
		}); err != nil {
			return err
		}
	}
	if err := enc.Encode(TraceEvent{
		Kind:        metrics.EventSummary,
		MakespanSec: res.Makespan.Seconds(),
		CellsDone:   res.UsefulCells,
		TotalGCUPS:  res.GCUPS(),
	}); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadTrace parses a JSON-lines trace back into events.
func ReadTrace(r io.Reader) ([]TraceEvent, error) {
	var out []TraceEvent
	dec := json.NewDecoder(r)
	for {
		var e TraceEvent
		if err := dec.Decode(&e); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("platform: trace line %d: %w", len(out)+1, err)
		}
		out = append(out, e)
	}
}

// TraceSummary extracts the overall summary event from a trace.
func TraceSummary(events []TraceEvent) (TraceEvent, bool) {
	for _, e := range events {
		if e.Kind == metrics.EventSummary && e.PE == "" {
			return e, true
		}
	}
	return TraceEvent{}, false
}
