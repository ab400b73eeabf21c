package seqio

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fasta"
	"repro/internal/seq"
)

func writeFasta(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "db.fasta")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// headerMaxLen reads the longest-sequence length recorded in the index
// header of the FASTA file at path.
func headerMaxLen(t *testing.T, path string) int {
	t.Helper()
	idx, err := os.ReadFile(IndexPath(path))
	if err != nil || len(idx) < 24 {
		t.Fatalf("index of %s: %d bytes, %v", path, len(idx), err)
	}
	return int(binary.LittleEndian.Uint64(idx[16:24]))
}

func TestBuildAndOpen(t *testing.T) {
	path := writeFasta(t, ">q0 first\nACDE\nFG\n>q1\nMK\n>q2 third\nWWWWWWWWWW\n")
	n, err := Build(path, IndexPath(path))
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("Build indexed %d, want 3", n)
	}
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.Count() != 3 {
		t.Errorf("Count = %d", f.Count())
	}
	if got := headerMaxLen(t, path); got != 10 {
		t.Errorf("header maxLen = %d, want 10", got)
	}
	s, err := f.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	if s.ID != "q1" || string(s.Residues) != "MK" {
		t.Errorf("Get(1) = %v", s)
	}
	// Random access to the middle/end.
	s2, _ := f.Get(2)
	if s2.ID != "q2" || s2.Len() != 10 {
		t.Errorf("Get(2) = %v", s2)
	}
	s0, _ := f.Get(0)
	if s0.ID != "q0" || string(s0.Residues) != "ACDEFG" || s0.Description != "first" {
		t.Errorf("Get(0) = %v", s0)
	}
}

func TestOpenBuildsMissingIndex(t *testing.T) {
	path := writeFasta(t, ">a\nAC\n")
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.Count() != 1 {
		t.Errorf("Count = %d", f.Count())
	}
	if _, err := os.Stat(IndexPath(path)); err != nil {
		t.Error("index not persisted")
	}
}

func TestGetRange(t *testing.T) {
	path := writeFasta(t, ">a\nAC\n>b\nDE\n>c\nFG\n>d\nHI\n")
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := f.GetRange(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].ID != "b" || got[1].ID != "c" {
		t.Errorf("GetRange = %v", got)
	}
	if _, err := f.GetRange(3, 2); err == nil {
		t.Error("inverted range accepted")
	}
	if _, err := f.GetRange(0, 9); err == nil {
		t.Error("overlong range accepted")
	}
	empty, err := f.GetRange(2, 2)
	if err != nil || len(empty) != 0 {
		t.Errorf("empty range = %v, %v", empty, err)
	}
}

func TestGetOutOfRange(t *testing.T) {
	path := writeFasta(t, ">a\nAC\n")
	f, _ := Open(path)
	defer f.Close()
	if _, err := f.Get(-1); err == nil {
		t.Error("negative index accepted")
	}
	if _, err := f.Get(1); err == nil {
		t.Error("past-end index accepted")
	}
}

func TestCRLFAndNoTrailingNewline(t *testing.T) {
	path := writeFasta(t, ">a x\r\nACGT\r\n>b\r\nMKVL")
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.Count() != 2 || headerMaxLen(t, path) != 4 {
		t.Fatalf("Count=%d maxLen=%d", f.Count(), headerMaxLen(t, path))
	}
	s, err := f.Get(1)
	if err != nil || string(s.Residues) != "MKVL" {
		t.Errorf("Get(1) = %v, %v", s, err)
	}
}

func TestRoundTripAgainstFastaReader(t *testing.T) {
	// Index-based access must agree with a sequential FASTA parse.
	var buf bytes.Buffer
	w := fasta.NewWriter(&buf)
	w.Wrap = 7
	var want []*seq.Sequence
	for i := 0; i < 25; i++ {
		s := seq.New(
			string(rune('a'+i)),
			"desc",
			bytes.Repeat([]byte{"ACDEFGHIKLMNPQRSTVWY"[i%20]}, 1+i*3),
		)
		want = append(want, s)
		if err := w.Write(s); err != nil {
			t.Fatal(err)
		}
	}
	path := writeFasta(t, buf.String())
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.Count() != len(want) {
		t.Fatalf("Count = %d, want %d", f.Count(), len(want))
	}
	for i := len(want) - 1; i >= 0; i-- { // access out of order on purpose
		got, err := f.Get(i)
		if err != nil {
			t.Fatal(err)
		}
		if got.ID != want[i].ID || !bytes.Equal(got.Residues, want[i].Residues) {
			t.Fatalf("record %d mismatch", i)
		}
	}
	if got := headerMaxLen(t, path); got != want[len(want)-1].Len() {
		t.Errorf("header maxLen = %d, want %d", got, want[len(want)-1].Len())
	}
}

func TestOpenRejectsCorruptIndex(t *testing.T) {
	path := writeFasta(t, ">a\nAC\n")
	if err := os.WriteFile(IndexPath(path), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Error("corrupt index accepted")
	}
	// Truncated but with valid magic.
	idx := append(append([]byte{}, magic[:]...), make([]byte, 16)...)
	idx[8] = 9 // claims 9 records with no offset table
	os.WriteFile(IndexPath(path), idx, 0o644)
	if _, err := Open(path); err == nil {
		t.Error("truncated index accepted")
	}
}

func TestBuildMissingFile(t *testing.T) {
	if _, err := Build("/nonexistent/x.fasta", "/tmp/x.idx"); err == nil {
		t.Error("missing flat file accepted")
	}
}

func TestBuildEmptyFile(t *testing.T) {
	path := writeFasta(t, "")
	n, err := Build(path, IndexPath(path))
	if err != nil || n != 0 {
		t.Errorf("empty build = %d, %v", n, err)
	}
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.Count() != 0 {
		t.Errorf("Count = %d", f.Count())
	}
}
