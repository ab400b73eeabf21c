package jobs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
)

// This file is the pure half of the durable store: turning a snapshot blob
// plus a WAL blob back into job records, and turning one record into its
// WAL line. Keeping it free of file I/O lets the FuzzWALReplay target
// exercise the exact recovery semantics the Manager boots with — torn
// tails, duplicated records, last-wins — on in-memory bytes.

// replay reconstructs the surviving job records from a snapshot body (a
// JSON array of records; nil or empty means no snapshot) with the WAL (one
// JSON record per line) replayed over it. Later WAL records for the same
// job ID win. Unparseable WAL lines are skipped: a torn final line is the
// expected shape of a crash mid-append, and any earlier complete records
// already took effect. A corrupt snapshot is an error — it is written
// atomically, so damage there is real. Records return sorted by Created
// then ID, the order recovery re-enqueues them in.
func replay(snapshot, wal []byte) ([]Job, error) {
	byID := map[string]Job{}
	if len(bytes.TrimSpace(snapshot)) > 0 {
		var snap []Job
		if err := json.Unmarshal(snapshot, &snap); err != nil {
			return nil, fmt.Errorf("jobs: corrupt snapshot: %w", err)
		}
		for _, j := range snap {
			byID[j.ID] = j
		}
	}
	for _, line := range bytes.Split(wal, []byte("\n")) {
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		var j Job
		if err := json.Unmarshal(line, &j); err != nil {
			continue
		}
		byID[j.ID] = j
	}
	out := make([]Job, 0, len(byID))
	for _, j := range byID {
		out = append(out, j)
	}
	sort.Slice(out, func(i, k int) bool {
		if !out[i].Created.Equal(out[k].Created) {
			return out[i].Created.Before(out[k].Created)
		}
		return out[i].ID < out[k].ID
	})
	return out, nil
}

// cleanLength returns the length of the WAL prefix ending at the last
// complete (newline-terminated) record. Recovery must truncate the WAL to
// this offset before appending again: replay tolerates a torn final line,
// but appending directly after the torn bytes would concatenate the next
// record onto them, producing one unparseable merged line — the crash
// would silently swallow the first record written after recovery.
func cleanLength(wal []byte) int {
	if i := bytes.LastIndexByte(wal, '\n'); i >= 0 {
		return i + 1
	}
	return 0
}

// marshalRecord encodes one job record as its WAL line, trailing newline
// included — the exact bytes store.append writes.
func marshalRecord(j Job) ([]byte, error) {
	raw, err := json.Marshal(j)
	if err != nil {
		return nil, err
	}
	return append(raw, '\n'), nil
}
