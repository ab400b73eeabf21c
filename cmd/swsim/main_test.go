package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

// TestReplayFileRejectsStaleKeys: a shrunken reproducer replays to the
// failure it was saved for (exit 1), while the same file carrying a key
// the Scenario no longer has — a reproducer saved by an older build — is
// refused with exit 2 and the key named, never replayed as a different
// scenario.
func TestReplayFileRejectsStaleKeys(t *testing.T) {
	sc := sim.ShardFailover(1)
	for i := range sc.Slaves {
		sc.Slaves[i].CrashAt = time.Millisecond // nobody left to finish the job
	}
	if !failing(sc) {
		t.Fatal("planted scenario does not fail; test setup broken")
	}
	repro, err := json.MarshalIndent(sim.Shrink(sc, failing, 100), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	valid := filepath.Join(dir, "repro.json")
	if err := os.WriteFile(valid, repro, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := replayFile(valid, true); got != 1 {
		t.Errorf("replaying a failing reproducer: exit %d, want 1", got)
	}

	for _, key := range []string{"tenants", "preempt", "check_fair_share"} {
		stale := filepath.Join(dir, key+".json")
		body := strings.Replace(string(repro), "{", `{"`+key+`": null,`, 1)
		if err := os.WriteFile(stale, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := loadScenario(stale); err == nil || !strings.Contains(err.Error(), `"`+key+`"`) {
			t.Errorf("loadScenario with removed key %q: err = %v, want it named", key, err)
		}
		if got := replayFile(stale, true); got != 2 {
			t.Errorf("replaying a file with removed key %q: exit %d, want 2", key, got)
		}
	}
}
