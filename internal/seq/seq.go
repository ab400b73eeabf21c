// Package seq defines biological sequences and residue alphabets.
//
// A biological sequence is an ordered list of residues: nucleotide bases for
// DNA/RNA or amino acids for proteins. Sequences are stored as byte slices of
// upper-case residue letters; the Alphabet type validates membership and maps
// residues to dense indices used by scoring matrices and query profiles.
package seq

import (
	"fmt"
	"strings"
)

// Kind identifies the molecule type of an alphabet.
type Kind int

const (
	// DNAKind is deoxyribonucleic acid (alphabet ATGC).
	DNAKind Kind = iota
	// RNAKind is ribonucleic acid (alphabet AUGC).
	RNAKind
	// ProteinKind is a protein (20 amino acids plus ambiguity codes).
	ProteinKind
)

// String returns the conventional name of the molecule kind.
func (k Kind) String() string {
	switch k {
	case DNAKind:
		return "DNA"
	case RNAKind:
		return "RNA"
	case ProteinKind:
		return "protein"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Alphabet maps residue letters to dense indices [0, Size) and back.
// The zero value is not useful; use one of the package-level alphabets or
// NewAlphabet.
type Alphabet struct {
	kind    Kind
	letters string
	index   [256]int8 // -1 when the byte is not a residue of this alphabet
}

// Package alphabets. Protein includes the standard 20 amino acids followed by
// the ambiguity/extension codes B, Z, X and the stop/unknown placeholder '*',
// matching the column order of the embedded BLOSUM/PAM matrices.
var (
	DNA     = NewAlphabet(DNAKind, "ATGC")
	RNA     = NewAlphabet(RNAKind, "AUGC")
	Protein = NewAlphabet(ProteinKind, "ACDEFGHIKLMNPQRSTVWYBZX*")
)

// NewAlphabet builds an alphabet from the given residue letters. Letters are
// case-insensitive on lookup but stored upper-case. It panics if letters
// repeat, because alphabets are package-level constants in practice.
func NewAlphabet(kind Kind, letters string) *Alphabet {
	letters = strings.ToUpper(letters)
	a := &Alphabet{kind: kind, letters: letters}
	for i := range a.index {
		a.index[i] = -1
	}
	for i := 0; i < len(letters); i++ {
		c := letters[i]
		if a.index[c] != -1 {
			panic(fmt.Sprintf("seq: duplicate letter %q in alphabet", c))
		}
		a.index[c] = int8(i)
		if lo := c | 0x20; lo != c { // also accept lower case
			a.index[lo] = int8(i)
		}
	}
	return a
}

// Kind reports the molecule kind of the alphabet.
func (a *Alphabet) Kind() Kind { return a.kind }

// Size returns the number of residues in the alphabet.
func (a *Alphabet) Size() int { return len(a.letters) }

// Index returns the dense index of residue c, or -1 if c is not a residue of
// this alphabet.
func (a *Alphabet) Index(c byte) int { return int(a.index[c]) }

// Letter returns the residue letter for dense index i.
func (a *Alphabet) Letter(i int) byte { return a.letters[i] }

// Validate checks that every byte of s is a residue of the alphabet and
// returns a descriptive error naming the first offending byte otherwise.
func (a *Alphabet) Validate(s []byte) error {
	for i, c := range s {
		if a.index[c] < 0 {
			return fmt.Errorf("seq: invalid %s residue %q at position %d", a.kind, c, i)
		}
	}
	return nil
}

// Encode converts residue letters to dense indices, allocating a new slice.
// It returns an error if any byte is not in the alphabet.
func (a *Alphabet) Encode(s []byte) ([]byte, error) {
	out := make([]byte, len(s))
	for i, c := range s {
		v := a.index[c]
		if v < 0 {
			return nil, fmt.Errorf("seq: invalid %s residue %q at position %d", a.kind, c, i)
		}
		out[i] = byte(v)
	}
	return out, nil
}

// Decode converts dense indices back to residue letters, allocating a new
// slice. Indices outside the alphabet render as '?'.
func (a *Alphabet) Decode(idx []byte) []byte {
	out := make([]byte, len(idx))
	for i, v := range idx {
		if int(v) < len(a.letters) {
			out[i] = a.letters[v]
		} else {
			out[i] = '?'
		}
	}
	return out
}

// Sequence is a named biological sequence. Residues holds upper-case letters
// of the sequence's alphabet (not dense indices).
type Sequence struct {
	ID          string // first word of the FASTA header
	Description string // remainder of the FASTA header, may be empty
	Residues    []byte
}

// New builds a sequence, upper-casing residues in place of a fresh copy so
// the caller's buffer is not aliased.
func New(id, desc string, residues []byte) *Sequence {
	r := make([]byte, len(residues))
	for i, c := range residues {
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		r[i] = c
	}
	return &Sequence{ID: id, Description: desc, Residues: r}
}

// Len returns the number of residues.
func (s *Sequence) Len() int { return len(s.Residues) }

// String renders the sequence as ">ID desc" plus a residue preview, for logs.
func (s *Sequence) String() string {
	const preview = 12
	r := s.Residues
	suffix := ""
	if len(r) > preview {
		r, suffix = r[:preview], "..."
	}
	return fmt.Sprintf(">%s [%d aa] %s%s", s.ID, s.Len(), r, suffix)
}

// GuessAlphabet inspects s and returns the most plausible package alphabet:
// DNA if all residues are ATGC(N), RNA if AUGC(N), otherwise Protein.
func GuessAlphabet(s []byte) *Alphabet {
	var hasU, hasT, other bool
	for _, c := range s {
		switch c | 0x20 {
		case 'a', 'g', 'c', 'n':
		case 't':
			hasT = true
		case 'u':
			hasU = true
		default:
			other = true
		}
	}
	switch {
	case other || (hasT && hasU):
		return Protein
	case hasU:
		return RNA
	default:
		return DNA
	}
}
