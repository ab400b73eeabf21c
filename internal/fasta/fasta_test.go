package fasta

import (
	"bytes"
	"io"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/seq"
)

func TestReadBasic(t *testing.T) {
	in := ">q1 first query\nACDE\nFGHI\n>q2\nKLMN\n"
	seqs, err := NewReader(strings.NewReader(in)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 2 {
		t.Fatalf("got %d sequences, want 2", len(seqs))
	}
	if seqs[0].ID != "q1" || seqs[0].Description != "first query" {
		t.Errorf("header = %q %q", seqs[0].ID, seqs[0].Description)
	}
	if string(seqs[0].Residues) != "ACDEFGHI" {
		t.Errorf("residues = %s", seqs[0].Residues)
	}
	if string(seqs[1].Residues) != "KLMN" {
		t.Errorf("residues = %s", seqs[1].Residues)
	}
}

func TestReadCRLFAndComments(t *testing.T) {
	in := "; a comment\r\n>s1 desc here\r\nAC\r\n\r\nGT\r\n"
	seqs, err := NewReader(strings.NewReader(in)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 1 || string(seqs[0].Residues) != "ACGT" {
		t.Fatalf("got %+v", seqs)
	}
}

func TestReadNoTrailingNewline(t *testing.T) {
	seqs, err := NewReader(strings.NewReader(">s\nACGT")).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if string(seqs[0].Residues) != "ACGT" {
		t.Errorf("residues = %s", seqs[0].Residues)
	}
}

func TestReadLowercase(t *testing.T) {
	seqs, err := NewReader(strings.NewReader(">s\nacgt\n")).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if string(seqs[0].Residues) != "ACGT" {
		t.Errorf("residues = %s, want upper-cased", seqs[0].Residues)
	}
}

func TestReadErrors(t *testing.T) {
	if _, err := NewReader(strings.NewReader("ACGT\n")).Read(); err == nil {
		t.Error("data before header should fail")
	}
	if _, err := NewReader(strings.NewReader(">\nACGT\n")).Read(); err == nil {
		t.Error("empty header should fail")
	}
	if _, err := NewReader(strings.NewReader("")).Read(); err != io.EOF {
		t.Errorf("empty input: err = %v, want io.EOF", err)
	}
}

func TestReadStreaming(t *testing.T) {
	r := NewReader(strings.NewReader(">a\nAA\n>b\nCC\n"))
	s1, err := r.Read()
	if err != nil || s1.ID != "a" {
		t.Fatalf("first Read = %v, %v", s1, err)
	}
	s2, err := r.Read()
	if err != nil || s2.ID != "b" {
		t.Fatalf("second Read = %v, %v", s2, err)
	}
	if _, err := r.Read(); err != io.EOF {
		t.Errorf("third Read err = %v, want io.EOF", err)
	}
}

func TestSplitHeader(t *testing.T) {
	cases := []struct{ in, id, desc string }{
		{"sp|P1|NAME desc text", "sp|P1|NAME", "desc text"},
		{"plain", "plain", ""},
		{"  padded  id ", "padded", "id"},
		{"tab\tdesc", "tab", "desc"},
	}
	for _, c := range cases {
		id, desc := SplitHeader(c.in)
		if id != c.id || desc != c.desc {
			t.Errorf("SplitHeader(%q) = %q,%q want %q,%q", c.in, id, desc, c.id, c.desc)
		}
	}
}

func TestWriteWrap(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Wrap = 4
	if err := w.Write(seq.New("s1", "d", []byte("ACDEFGHIK"))); err != nil {
		t.Fatal(err)
	}
	want := ">s1 d\nACDE\nFGHI\nK\n"
	if buf.String() != want {
		t.Errorf("got %q, want %q", buf.String(), want)
	}
}

func TestWriteNoWrap(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Wrap = 0
	w.Write(seq.New("s", "", []byte("ACGT")))
	if buf.String() != ">s\nACGT\n" {
		t.Errorf("got %q", buf.String())
	}
}

func TestWriteEmptySequence(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Write(seq.New("e", "", nil))
	got, err := NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Len() != 0 {
		t.Errorf("round trip of empty sequence = %v", got)
	}
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "db.fasta")
	in := []*seq.Sequence{
		seq.New("a", "first", []byte("ACDEFGHIKLMNPQRSTVWY")),
		seq.New("b", "", []byte("MKV")),
	}
	if err := WriteFile(path, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("got %d sequences, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i].ID != in[i].ID || !bytes.Equal(out[i].Residues, in[i].Residues) {
			t.Errorf("record %d mismatch: %v vs %v", i, out[i], in[i])
		}
	}
}

func TestReadFileMissing(t *testing.T) {
	if _, err := ReadFile(filepath.Join(t.TempDir(), "nope.fasta")); err == nil {
		t.Error("missing file should fail")
	}
}

// Property: write-then-read preserves IDs and residues for arbitrary
// alphabet-constrained content and wrap widths.
func TestRoundTripProperty(t *testing.T) {
	f := func(raw []byte, wrap uint8) bool {
		res := make([]byte, len(raw))
		for i, b := range raw {
			res[i] = seq.Protein.Letter(int(b) % 20)
		}
		in := seq.New("id1", "some description", res)
		var buf bytes.Buffer
		w := NewWriter(&buf)
		w.Wrap = int(wrap%80) + 1
		if err := w.Write(in); err != nil {
			return false
		}
		out, err := NewReader(&buf).ReadAll()
		if err != nil || len(out) != 1 {
			return false
		}
		return out[0].ID == in.ID && bytes.Equal(out[0].Residues, in.Residues)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
