package hybridsw_test

import (
	"fmt"

	hybridsw "repro"
)

// ExampleAlign aligns two related protein fragments with the paper's
// default scoring (BLOSUM62, gap open 10 / extend 2).
func ExampleAlign() {
	scheme := hybridsw.DefaultScheme()
	a := hybridsw.Align([]byte("HEAGAWGHEE"), []byte("PAWHEAE"), scheme)
	fmt.Println("score:", a.Score)
	fmt.Printf("%s\n%s\n", a.QueryRow, a.TargetRow)
	// Output:
	// score: 17
	// HEA
	// HEA
}

// ExampleScore computes just the optimal local score (phase 1).
func ExampleScore() {
	scheme := hybridsw.DefaultScheme()
	fmt.Println(hybridsw.Score([]byte("MKVLATGLL"), []byte("MKVLAGLL"), scheme))
	// Output: 24
}

// ExampleSearch runs a tiny hybrid database search end to end: one
// GPU engine plus one SSE core under the PSS policy with the workload
// adjustment mechanism.
func ExampleSearch() {
	db, _ := hybridsw.GenerateDatabase("Ensembl Dog Proteins", 0.0003, 1)
	queries := hybridsw.GenerateQueries(db, 1, 60, 60, 2)

	report, err := hybridsw.Search(queries, db, hybridsw.Platform{
		GPUs: 1, SSECores: 1, Policy: "PSS", Adjust: true, TopK: 1,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	r := report.PerQuery[0]
	fmt.Printf("%s best hit %s with score %d\n", r.Query, r.Hits[0].SeqID, r.Hits[0].Score)
	// Output: Q00_len60 best hit DB000002 with score 293
}

// ExampleSimulate predicts the paper's testbed behaviour on the calibrated
// virtual-time platform: 4 GTX 580s plus 4 SSE cores against SwissProt.
func ExampleSimulate() {
	res, err := hybridsw.Simulate("UniProtKB/SwissProt", 4, 4, "PSS", true, 1)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("within the paper's ballpark (~112 s): %v\n",
		res.Makespan.Seconds() > 90 && res.Makespan.Seconds() < 160)
	// Output: within the paper's ballpark (~112 s): true
}
