package jobs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// store is the durable side of the Manager: a JSON-lines write-ahead log of
// job records plus a periodic snapshot, and one file per cached result.
// Layout under the jobs dir:
//
//	snapshot.json   JSON array of job records (the compacted base state)
//	wal.jsonl       one job record per line, appended on every transition;
//	                replayed over the snapshot on boot, last record wins
//	results/        <key>.json encoded result bodies, content-addressed
//
// The store is not safe for concurrent use; the Manager serializes access
// under its mutex. Write failures degrade durability, never serving: the
// Manager counts them and keeps going.
type store struct {
	dir     string
	wal     *os.File
	appends int // records since the last snapshot, drives compaction
}

const (
	walName      = "wal.jsonl"
	snapshotName = "snapshot.json"
	resultsDir   = "results"
)

// openStore opens (creating if needed) a jobs dir and returns the surviving
// job records: the snapshot with the WAL replayed over it (see replay),
// sorted by creation.
func openStore(dir string) (*store, []Job, error) {
	if err := os.MkdirAll(filepath.Join(dir, resultsDir), 0o755); err != nil {
		return nil, nil, fmt.Errorf("jobs: creating %s: %w", dir, err)
	}
	var snapRaw, walRaw []byte
	if raw, err := os.ReadFile(filepath.Join(dir, snapshotName)); err == nil {
		snapRaw = raw
	} else if !os.IsNotExist(err) {
		return nil, nil, err
	}
	if raw, err := os.ReadFile(filepath.Join(dir, walName)); err == nil {
		walRaw = raw
	} else if !os.IsNotExist(err) {
		return nil, nil, err
	}
	out, err := replay(snapRaw, walRaw)
	if err != nil {
		return nil, nil, fmt.Errorf("%w (in %s)", err, dir)
	}
	// Drop a torn final line (crash mid-append) before reopening for
	// append, or the next record would be concatenated onto it and lost.
	if clean := cleanLength(walRaw); clean != len(walRaw) {
		if err := os.Truncate(filepath.Join(dir, walName), int64(clean)); err != nil {
			return nil, nil, fmt.Errorf("jobs: truncating torn WAL tail: %w", err)
		}
	}
	wal, err := os.OpenFile(filepath.Join(dir, walName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	return &store{dir: dir, wal: wal}, out, nil
}

// append logs one job record.
func (s *store) append(j Job) error {
	raw, err := marshalRecord(j)
	if err != nil {
		return err
	}
	if _, err := s.wal.Write(raw); err != nil {
		return err
	}
	s.appends++
	return nil
}

// saveResult persists one result body under its content key, atomically.
func (s *store) saveResult(key string, body []byte) error {
	final := s.resultPath(key)
	tmp := final + ".tmp"
	if err := os.WriteFile(tmp, body, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, final)
}

// loadResult returns a persisted result body, if present.
func (s *store) loadResult(key string) ([]byte, bool) {
	raw, err := os.ReadFile(s.resultPath(key))
	if err != nil {
		return nil, false
	}
	return raw, true
}

func (s *store) resultPath(key string) string {
	return filepath.Join(s.dir, resultsDir, key+".json")
}

// snapshot compacts the store: the given records become the new snapshot,
// the WAL restarts empty, and result files whose key is not in keep are
// pruned (their jobs aged out of retention).
func (s *store) snapshot(all []Job, keep map[string]bool) error {
	raw, err := json.MarshalIndent(all, "", " ")
	if err != nil {
		return err
	}
	final := filepath.Join(s.dir, snapshotName)
	tmp := final + ".tmp"
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		return err
	}
	// The snapshot holds every record, so the WAL can restart from zero.
	// Truncate-in-place keeps the open append handle valid.
	if err := s.wal.Truncate(0); err != nil {
		return err
	}
	if _, err := s.wal.Seek(0, 0); err != nil {
		return err
	}
	s.appends = 0
	entries, err := os.ReadDir(filepath.Join(s.dir, resultsDir))
	if err != nil {
		return err
	}
	for _, e := range entries {
		key := strings.TrimSuffix(e.Name(), ".json")
		if key == e.Name() || keep[key] {
			continue
		}
		if err := os.Remove(filepath.Join(s.dir, resultsDir, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

// close releases the WAL handle (callers snapshot first).
func (s *store) close() error { return s.wal.Close() }
