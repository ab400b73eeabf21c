package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Trace (the request's sequence number plus one; 0 marks a replay
// span that belongs to no request); Parent is the span that caused it.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Trace  int    `json:"trace,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // Unix nanoseconds
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is the untraced run.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

// add records a span and returns its id, for children to name as parent.
func (r *recorder) add(parent, trace int, name string, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Trace: trace, Name: name,
		Start: start.UnixNano(), End: end.UnixNano()})
	return id
}

// selfTimes returns each span's duration minus the part of its interval
// that its child spans cover (children may overlap each other and are
// clipped to the parent), keyed by span id.
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return out
}

// selfByName sums self time per span name, in ms.
func selfByName(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Name] += ms(self[s.ID])
	}
	return out
}

// row is the per-request record written next to the spans.
type row struct {
	ID     int    `json:"id"`
	Class  string `json:"class"`
	Tenant string `json:"tenant,omitempty"`
	Due    int64  `json:"due_ns"`
	Sent   int64  `json:"sent_ns"`
	Done   int64  `json:"done_ns"`
	Status int    `json:"status"`
	Bytes  int    `json:"bytes"`
	Cells  int64  `json:"cells"`
	Error  string `json:"error,omitempty"`
}

// writeJSONLines writes one JSON object per line.
func writeJSONLines[T any](path string, items []T) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, it := range items {
		if err := enc.Encode(it); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
