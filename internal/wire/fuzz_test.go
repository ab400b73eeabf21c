package wire

import (
	"bytes"
	"encoding/gob"
	"io"
	"testing"

	"repro/internal/sched"
)

// corpusEnvelopes are representative protocol messages, one per kind plus
// edge shapes (empty hits, error envelopes), used both as the fuzz seed
// corpus and as a round-trip sanity check.
func corpusEnvelopes() []Envelope {
	return []Envelope{
		{Register: &RegisterMsg{Name: "gpu0", Kind: sched.KindGPU, DeclaredSpeed: 3.5e10}},
		{RegisterAck: &RegisterAckMsg{Slave: 2}},
		{Request: &RequestMsg{Slave: 0}},
		{Assign: &AssignMsg{Standby: true}},
		{Assign: &AssignMsg{Done: true}},
		{Assign: &AssignMsg{Replica: true, Tasks: []TaskSpec{
			{ID: 3, QueryID: "q3", Residues: []byte("MKV"), Cells: 1234},
		}}},
		{Progress: &ProgressMsg{Slave: 1, Rate: 2.5e9, Cells: 100000}},
		{ProgressAck: &ProgressAckMsg{Cancel: []sched.TaskID{1, 2}, Done: false}},
		{Complete: &CompleteMsg{Slave: 1, Task: 3, Rate: 1e9, Cells: 42, Hits: []Hit{
			{SeqID: "db1", Index: 7, Score: 88},
			{SeqID: "db2", Index: 9, Score: 17},
		}}},
		{CompleteAck: &CompleteAckMsg{Accepted: true, Cancel: []sched.TaskID{5}, Done: true}},
		{Error: "unknown slave 7"},
	}
}

// FuzzWireDecode feeds arbitrary bytes to the gob stream decoder the
// master and slaves read from the network. The codec must never panic on
// hostile input — it faces the network — and everything it does decode
// must survive a re-encode (no internally inconsistent envelopes).
func FuzzWireDecode(f *testing.F) {
	for _, env := range corpusEnvelopes() {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&env); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	// A stream of several envelopes, as a long-lived connection produces.
	var stream bytes.Buffer
	enc := gob.NewEncoder(&stream)
	for _, env := range corpusEnvelopes()[:3] {
		if err := enc.Encode(&env); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(stream.Bytes())
	// A completion as an older slave sends it, alignment rows and all.
	f.Add(legacyComplete(f))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return // the serving path caps message size well below this
		}
		dec := gob.NewDecoder(bytes.NewReader(data))
		for i := 0; i < 64; i++ {
			var env Envelope
			err := dec.Decode(&env)
			if err == io.EOF {
				return
			}
			if err != nil {
				return // malformed input must error, not panic
			}
			// Whatever decoded must re-encode cleanly.
			if err := gob.NewEncoder(io.Discard).Encode(&env); err != nil {
				t.Fatalf("decoded envelope does not re-encode: %v (%+v)", err, env)
			}
		}
	})
}

// TestEnvelopeRoundTrip pins the codec: every corpus envelope must survive
// an encode/decode cycle byte-for-byte in its decoded form.
func TestEnvelopeRoundTrip(t *testing.T) {
	for i, env := range corpusEnvelopes() {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&env); err != nil {
			t.Fatalf("envelope %d: encode: %v", i, err)
		}
		var got Envelope
		if err := gob.NewDecoder(&buf).Decode(&got); err != nil {
			t.Fatalf("envelope %d: decode: %v", i, err)
		}
		var a, b bytes.Buffer
		if err := gob.NewEncoder(&a).Encode(&env); err != nil {
			t.Fatal(err)
		}
		if err := gob.NewEncoder(&b).Encode(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("envelope %d: round trip changed the message: %+v -> %+v", i, env, got)
		}
	}
}
