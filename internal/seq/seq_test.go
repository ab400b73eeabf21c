package seq

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestAlphabetSizes(t *testing.T) {
	if got := DNA.Size(); got != 4 {
		t.Errorf("DNA.Size() = %d, want 4", got)
	}
	if got := RNA.Size(); got != 4 {
		t.Errorf("RNA.Size() = %d, want 4", got)
	}
	if got := Protein.Size(); got != 24 {
		t.Errorf("Protein.Size() = %d, want 24", got)
	}
}

func TestAlphabetIndexRoundTrip(t *testing.T) {
	for _, a := range []*Alphabet{DNA, RNA, Protein} {
		for i := 0; i < a.Size(); i++ {
			c := a.Letter(i)
			if got := a.Index(c); got != i {
				t.Errorf("%s: Index(Letter(%d)) = %d", a.Kind(), i, got)
			}
		}
	}
}

func TestAlphabetCaseInsensitive(t *testing.T) {
	if DNA.Index('a') != DNA.Index('A') {
		t.Error("DNA lookup is case-sensitive")
	}
	if Protein.Index('w') < 0 || Protein.Index('W') < 0 {
		t.Error("Protein should contain w/W")
	}
}

func TestAlphabetValidate(t *testing.T) {
	if err := DNA.Validate([]byte("ATGCatgc")); err != nil {
		t.Errorf("Validate(ATGCatgc) = %v, want nil", err)
	}
	err := DNA.Validate([]byte("ATXG"))
	if err == nil {
		t.Fatal("Validate(ATXG) = nil, want error")
	}
}

func TestEncodeDecode(t *testing.T) {
	in := []byte("ACDEFGHIKLMNPQRSTVWY")
	enc, err := Protein.Encode(in)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if got := Protein.Decode(enc); !bytes.Equal(got, in) {
		t.Errorf("Decode(Encode(%s)) = %s", in, got)
	}
	if _, err := Protein.Encode([]byte("AC1")); err == nil {
		t.Error("Encode with invalid residue should fail")
	}
}

func TestDecodeOutOfRange(t *testing.T) {
	got := DNA.Decode([]byte{0, 200})
	if got[1] != '?' {
		t.Errorf("Decode out-of-range = %q, want '?'", got[1])
	}
}

func TestNewUppercasesAndCopies(t *testing.T) {
	buf := []byte("acgt")
	s := New("s1", "test", buf)
	if string(s.Residues) != "ACGT" {
		t.Errorf("Residues = %s, want ACGT", s.Residues)
	}
	buf[0] = 'X'
	if s.Residues[0] != 'A' {
		t.Error("New aliased the caller's buffer")
	}
}

func TestSequenceString(t *testing.T) {
	s := New("q1", "", []byte("ACDEFGHIKLMNPQRSTVWY"))
	str := s.String()
	if !bytes.Contains([]byte(str), []byte("q1")) || !bytes.Contains([]byte(str), []byte("...")) {
		t.Errorf("String() = %q, want ID and truncation marker", str)
	}
	short := New("q2", "", []byte("AC"))
	if bytes.Contains([]byte(short.String()), []byte("...")) {
		t.Errorf("short String() = %q, should not truncate", short.String())
	}
}

func TestGuessAlphabet(t *testing.T) {
	cases := []struct {
		in   string
		want *Alphabet
	}{
		{"ATGCATGC", DNA},
		{"AUGGCA", RNA},
		{"MKVLAT", Protein},
		{"ATGU", Protein}, // both T and U: not a nucleotide sequence
		{"acgt", DNA},
	}
	for _, c := range cases {
		if got := GuessAlphabet([]byte(c.in)); got != c.want {
			t.Errorf("GuessAlphabet(%q) = %s, want %s", c.in, got.Kind(), c.want.Kind())
		}
	}
}

func TestKindString(t *testing.T) {
	if DNAKind.String() != "DNA" || ProteinKind.String() != "protein" {
		t.Error("Kind.String mismatch")
	}
	if Kind(99).String() == "" {
		t.Error("unknown Kind should still render")
	}
}

// Property: Encode/Decode round-trips for any string drawn from the alphabet.
func TestEncodeDecodeProperty(t *testing.T) {
	f := func(raw []byte) bool {
		s := make([]byte, len(raw))
		for i, b := range raw {
			s[i] = Protein.Letter(int(b) % Protein.Size())
		}
		enc, err := Protein.Encode(s)
		if err != nil {
			return false
		}
		return bytes.Equal(Protein.Decode(enc), s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNewAlphabetDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewAlphabet with duplicate letters should panic")
		}
	}()
	NewAlphabet(DNAKind, "AATC")
}
