package prefilter

import (
	"errors"
	"fmt"
)

// Automaton is an Aho-Corasick multi-pattern matcher compiled into flat
// slices. The classic goto/fail/output construction (Aho & Corasick 1975)
// is resolved at compile time into a dense, fail-free transition table, so
// the scan loop costs exactly one byte-class lookup plus one table lookup
// per database residue — no pointer chasing, no failure-link walks.
//
// The alphabet is reduced to the bytes that actually occur in the patterns:
// a byte absent from every pattern cannot participate in any match, so the
// scanner resets to the root without consulting the table. For protein
// k-mer seeds this keeps the table at states x ~20 entries instead of
// states x 256.
type Automaton struct {
	sym    [256]int16 // byte -> 1-based symbol index; 0 = absent from every pattern
	nsym   int        // distinct symbols (columns of the transition table)
	next   []int32    // dense fail-resolved transitions: next[state*nsym + sym-1]
	out    [][]int32  // out[state] = pattern indices whose occurrence ends at state
	states int
	plen   []int32 // pattern lengths, for match-start arithmetic
}

// maxStates bounds the trie so a hostile pattern set cannot compile an
// unboundedly large table: states <= 1 + sum of pattern lengths, and the
// seed compiler caps patterns well below this.
const maxStates = 1 << 20

// Compile builds the automaton over the given patterns. Patterns must be
// non-empty; duplicates are allowed and report independently.
func Compile(patterns [][]byte) (*Automaton, error) {
	if len(patterns) == 0 {
		return nil, errors.New("prefilter: no patterns")
	}
	a := &Automaton{plen: make([]int32, len(patterns))}
	total, longest := 0, 0
	for i, p := range patterns {
		if len(p) == 0 {
			return nil, fmt.Errorf("prefilter: pattern %d is empty", i)
		}
		a.plen[i] = int32(len(p))
		total += len(p)
		longest = max(longest, len(p))
		for _, b := range p {
			if a.sym[b] == 0 {
				a.nsym++
				a.sym[b] = int16(a.nsym)
			}
		}
	}
	if total+1 > maxStates {
		return nil, fmt.Errorf("prefilter: pattern set needs up to %d states (max %d)", total+1, maxStates)
	}
	S := a.nsym
	// Size the tables once from a bound on the state count: depth d of the
	// trie holds at most min(S^d, len(patterns)) states, and the trie at
	// most total+1 — tight for the prefilter's equal-length k-mer seeds.
	bound, width := 1, 1
	for d := 0; d < longest && bound <= total; d++ {
		width = min(width*S, len(patterns))
		bound += width
	}
	bound = min(bound, total+1)

	// Trie phase: the flat table grows one S-wide row per state (row st at
	// next[st*S:]), -1 marking absent edges; out holds one entry per state.
	next := appendRow(make([]int32, 0, bound*S), S)
	out := make([][]int32, 1, bound)
	for pi, p := range patterns {
		st := int32(0)
		for _, b := range p {
			e := int(st)*S + int(a.sym[b]) - 1
			if next[e] < 0 {
				next[e] = int32(len(out))
				next = appendRow(next, S)
				out = append(out, nil)
			}
			st = next[e]
		}
		out[st] = append(out[st], int32(pi))
	}
	states := len(out)

	// BFS phase: compute failure links level by level, fold each state's
	// failure outputs into its own output list, and overwrite absent edges
	// with the failure state's (already resolved) transition so the scan
	// never follows a fail link.
	fail := make([]int32, states)
	queue := make([]int32, 0, states)
	for c := 0; c < S; c++ {
		if t := next[c]; t >= 0 {
			queue = append(queue, t)
		} else {
			next[c] = 0
		}
	}
	for qi := 0; qi < len(queue); qi++ {
		st := queue[qi]
		// fail[st] is strictly shallower, so its out list is final.
		out[st] = append(out[st], out[fail[st]]...)
		row, frow := next[int(st)*S:][:S], next[int(fail[st])*S:][:S]
		for c := 0; c < S; c++ {
			if t := row[c]; t >= 0 {
				fail[t] = frow[c]
				queue = append(queue, t)
			} else {
				row[c] = frow[c]
			}
		}
	}

	a.states = states
	a.next = next
	a.out = out
	return a, nil
}

// appendRow appends one state's row of nsym absent (-1) edges to next.
func appendRow(next []int32, nsym int) []int32 {
	for c := 0; c < nsym; c++ {
		next = append(next, -1)
	}
	return next
}

// States returns the number of automaton states (trie nodes).
func (a *Automaton) States() int { return a.states }

// Patterns returns how many patterns the automaton was compiled over.
func (a *Automaton) Patterns() int { return len(a.plen) }

// PatternLen returns the length of pattern pi.
func (a *Automaton) PatternLen(pi int) int { return int(a.plen[pi]) }

// Scan streams data through the automaton, calling emit(end, pat) for every
// occurrence of pattern pat ending just before index end (the match spans
// data[end-PatternLen(pat):end]). Overlapping and nested occurrences all
// report, in left-to-right order of their end positions. Bytes outside the
// pattern alphabet reset the scanner to the root.
func (a *Automaton) Scan(data []byte, emit func(end, pat int)) {
	st := int32(0)
	S := a.nsym
	for i := 0; i < len(data); i++ {
		c := a.sym[data[i]]
		if c == 0 {
			st = 0
			continue
		}
		st = a.next[int(st)*S+int(c)-1]
		for _, pi := range a.out[st] {
			emit(i+1, int(pi))
		}
	}
}
