// Quickstart: align two protein sequences, then run a small hybrid
// database search with the public API.
package main

import (
	"fmt"
	"log"

	hybridsw "repro"
)

func main() {
	scheme := hybridsw.DefaultScheme() // BLOSUM62, gap open 10 / extend 2

	// Phase 1+2 of Smith-Waterman on a pair of sequences.
	q := []byte("MKVLATGLLFACDEHISWWKLRNQP")
	t := []byte("MKVLTTGLLACDEHISWKLRNQ")
	aln := hybridsw.Align(q, t, scheme)
	fmt.Println("pairwise local alignment:")
	fmt.Print(aln.Format(scheme, 60))

	// A synthetic database with the SwissProt profile, scaled to laptop
	// size, and four queries derived from it (so real homologs exist).
	db, err := hybridsw.GenerateDatabase("UniProtKB/SwissProt", 0.0001, 1)
	if err != nil {
		log.Fatal(err)
	}
	queries := hybridsw.GenerateQueries(db, 4, 80, 300, 2)
	fmt.Printf("searching %d queries against %d database sequences...\n\n", len(queries), len(db))

	// The paper's task execution environment, in process: one GPU engine
	// plus two adapted-Farrar SSE cores, PSS policy, workload adjustment
	// on.
	report, err := hybridsw.Search(queries, db, hybridsw.Platform{
		GPUs:     1,
		SSECores: 2,
		Policy:   "PSS",
		Adjust:   true,
		TopK:     3,
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range report.PerQuery {
		fmt.Printf("%-14s best hits:", r.Query)
		for _, h := range r.Hits {
			fmt.Printf("  %s=%d", h.SeqID, h.Score)
		}
		fmt.Println()
	}
	fmt.Printf("\nwall clock %.2fs, %.3f GCUPS\n", report.Elapsed.Seconds(), report.GCUPS())
}
