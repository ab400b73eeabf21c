// Package seqio implements the paper's indexed sequence file format
// (§IV-B).
//
// Biological "databases" are huge flat FASTA files. Database files are read
// sequentially by the execution modules, which is fine — but the *query*
// file must support fetching an arbitrary subset of sequences quickly, so
// the paper proposes an index that records the total number of sequences,
// the size of the biggest sequence, and the byte offset of the beginning of
// every sequence in the flat file. With the offsets, a sequence in the
// middle of the file is retrieved without scanning.
//
// Index layout (little-endian):
//
//	magic   [8]byte  "SWSIDX1\x00"
//	count   uint64   number of sequences
//	maxLen  uint64   residues in the longest sequence
//	offsets [count+1]uint64  byte offset of each record; the final entry
//	                         is the flat file's size, so record i spans
//	                         offsets[i]..offsets[i+1]
package seqio

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"repro/internal/fasta"
	"repro/internal/seq"
)

var magic = [8]byte{'S', 'W', 'S', 'I', 'D', 'X', '1', 0}

// IndexPath returns the conventional index file name for a FASTA path.
func IndexPath(fastaPath string) string { return fastaPath + ".swidx" }

// Build scans the flat FASTA file and writes its index to idxPath.
// It returns the number of sequences indexed.
func Build(fastaPath, idxPath string) (int, error) {
	f, err := os.Open(fastaPath)
	if err != nil {
		return 0, err
	}
	defer f.Close()

	var offsets []uint64
	var maxLen, curLen uint64
	var pos uint64
	inRecord := false
	flush := func() {
		if inRecord && curLen > maxLen {
			maxLen = curLen
		}
		curLen = 0
	}
	// Scan line by line, tracking byte positions exactly.
	buf := make([]byte, 1<<16)
	var line []byte
	var lineStart uint64
	for {
		n, rerr := f.Read(buf)
		for _, c := range buf[:n] {
			if len(line) == 0 {
				lineStart = pos
			}
			pos++
			if c == '\n' {
				processLine(line, lineStart, &offsets, &curLen, &maxLen, &inRecord)
				line = line[:0]
				continue
			}
			line = append(line, c)
		}
		if rerr == io.EOF {
			if len(line) > 0 {
				processLine(line, lineStart, &offsets, &curLen, &maxLen, &inRecord)
			}
			break
		}
		if rerr != nil {
			return 0, rerr
		}
	}
	flush()
	offsets = append(offsets, pos) // end sentinel

	out, err := os.Create(idxPath)
	if err != nil {
		return 0, err
	}
	count := uint64(len(offsets) - 1)
	writeErr := func() error {
		if _, err := out.Write(magic[:]); err != nil {
			return err
		}
		for _, v := range []uint64{count, maxLen} {
			if err := binary.Write(out, binary.LittleEndian, v); err != nil {
				return err
			}
		}
		return binary.Write(out, binary.LittleEndian, offsets)
	}()
	if writeErr != nil {
		_ = out.Close()
		return 0, writeErr
	}
	if err := out.Close(); err != nil {
		return 0, err
	}
	return int(count), nil
}

// processLine updates index state for one line of the flat file.
func processLine(line []byte, lineStart uint64, offsets *[]uint64, curLen, maxLen *uint64, inRecord *bool) {
	if len(line) == 0 || line[0] == ';' {
		return
	}
	// Tolerate CRLF files: a trailing \r does not count as residue data.
	if line[len(line)-1] == '\r' {
		line = line[:len(line)-1]
	}
	if len(line) > 0 && line[0] == '>' {
		if *inRecord && *curLen > *maxLen {
			*maxLen = *curLen
		}
		*curLen = 0
		*inRecord = true
		*offsets = append(*offsets, lineStart)
		return
	}
	if *inRecord {
		*curLen += uint64(len(line))
	}
}

// File is an open indexed sequence file supporting O(1) record access.
type File struct {
	flat    *os.File
	offsets []uint64
}

// Open loads the index and opens the flat file. If the index is missing it
// is built on the fly (and persisted next to the FASTA file).
func Open(fastaPath string) (*File, error) {
	idxPath := IndexPath(fastaPath)
	if _, err := os.Stat(idxPath); err != nil {
		if _, err := Build(fastaPath, idxPath); err != nil {
			return nil, fmt.Errorf("seqio: building index: %w", err)
		}
	}
	idx, err := os.ReadFile(idxPath)
	if err != nil {
		return nil, err
	}
	if len(idx) < 24 || [8]byte(idx[:8]) != magic {
		return nil, fmt.Errorf("seqio: %s: not an index file", idxPath)
	}
	count := binary.LittleEndian.Uint64(idx[8:16])
	want := 24 + 8*(int(count)+1)
	if len(idx) != want {
		return nil, fmt.Errorf("seqio: %s: truncated index (%d bytes, want %d)", idxPath, len(idx), want)
	}
	offsets := make([]uint64, count+1)
	for i := range offsets {
		offsets[i] = binary.LittleEndian.Uint64(idx[24+8*i:])
	}
	flat, err := os.Open(fastaPath)
	if err != nil {
		return nil, err
	}
	return &File{flat: flat, offsets: offsets}, nil
}

// Close releases the flat file.
func (f *File) Close() error { return f.flat.Close() }

// Count returns the number of sequences.
func (f *File) Count() int { return len(f.offsets) - 1 }

// Get retrieves sequence i without scanning the file.
func (f *File) Get(i int) (*seq.Sequence, error) {
	if i < 0 || i >= f.Count() {
		return nil, fmt.Errorf("seqio: index %d out of range [0,%d)", i, f.Count())
	}
	start, end := f.offsets[i], f.offsets[i+1]
	buf := make([]byte, end-start)
	if _, err := f.flat.ReadAt(buf, int64(start)); err != nil {
		return nil, err
	}
	recs, err := fasta.NewReader(bytes.NewReader(buf)).ReadAll()
	if err != nil {
		return nil, err
	}
	if len(recs) != 1 {
		return nil, fmt.Errorf("seqio: record %d parsed into %d sequences", i, len(recs))
	}
	return recs[0], nil
}

// GetRange retrieves sequences [lo, hi) — the "subset of query sequences"
// fetch the paper's format exists for.
func (f *File) GetRange(lo, hi int) ([]*seq.Sequence, error) {
	if lo < 0 || hi > f.Count() || lo > hi {
		return nil, fmt.Errorf("seqio: range [%d,%d) out of bounds [0,%d)", lo, hi, f.Count())
	}
	out := make([]*seq.Sequence, 0, hi-lo)
	for i := lo; i < hi; i++ {
		s, err := f.Get(i)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}
