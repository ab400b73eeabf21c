package wire

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"

	"repro/internal/sched"
)

// legacyHit is Hit as slaves sent it while every range task ran its own
// traceback: the score plus the best hit's alignment rows and coordinates.
type legacyHit struct {
	SeqID                  string
	Index                  int
	Score                  int
	QueryRow, TargetRow    []byte
	QueryStart, QueryEnd   int
	TargetStart, TargetEnd int
}

type legacyCompleteMsg struct {
	Slave sched.SlaveID
	Task  sched.TaskID
	Hits  []legacyHit
	Rate  float64
	Cells int64
}

type legacyEnvelope struct {
	Complete *legacyCompleteMsg
}

// legacyComplete gob-encodes a completion in the older slaves' shape.
func legacyComplete(tb testing.TB) []byte {
	tb.Helper()
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(legacyEnvelope{Complete: &legacyCompleteMsg{
		Slave: 3, Task: 11, Rate: 2e9, Cells: 4096, Hits: []legacyHit{
			{SeqID: "db4", Index: 4, Score: 61, QueryRow: []byte("AC-G"), TargetRow: []byte("ACTG"),
				QueryStart: 1, QueryEnd: 4, TargetStart: 2, TargetEnd: 6},
			{SeqID: "db9", Index: 9, Score: 17},
		},
	}})
	if err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestCompleteFromOlderSlave: a completion from a slave that still ships
// alignment rows decodes into today's CompleteMsg with the same scores,
// the rows dropped, so an older TCP slave still talks to a new master.
func TestCompleteFromOlderSlave(t *testing.T) {
	var env Envelope
	if err := gob.NewDecoder(bytes.NewReader(legacyComplete(t))).Decode(&env); err != nil {
		t.Fatal(err)
	}
	want := &CompleteMsg{Slave: 3, Task: 11, Rate: 2e9, Cells: 4096, Hits: []Hit{
		{SeqID: "db4", Index: 4, Score: 61},
		{SeqID: "db9", Index: 9, Score: 17},
	}}
	if !reflect.DeepEqual(env.Complete, want) {
		t.Fatalf("decoded %+v, want %+v", env.Complete, want)
	}
}
