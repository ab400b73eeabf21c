// Command swsearch compares a query file against a database file on an
// in-process hybrid platform: the paper's master/slave environment with
// real engines (adapted Farrar SSE cores, and GPU engines that scan with
// the same kernel but register as GPUs).
//
// Usage:
//
//	swsearch -queries queries.fasta -db db.fasta \
//	         -sse 2 -policy PSS -adjust -top 5
package main

import (
	"flag"
	"fmt"
	"os"

	hybridsw "repro"
	"repro/internal/fasta"
	"repro/internal/gcups"
)

func main() {
	var (
		qPath  = flag.String("queries", "", "query FASTA file")
		dbPath = flag.String("db", "", "database FASTA file")
		gpus   = flag.Int("gpus", 0, "GPU engines (the CPU kernel registered as GPU)")
		sse    = flag.Int("sse", 2, "SSE-core engines")
		policy = flag.String("policy", "PSS", "allocation policy: SS, PSS, Fixed, WFixed")
		adjust = flag.Bool("adjust", true, "enable the workload adjustment mechanism")
		omega  = flag.Int("omega", 0, "PSS history window (0 = default)")
		topK   = flag.Int("top", 5, "hits reported per query (0 = all)")
		doAln  = flag.Bool("align", false, "print the traceback alignment of each query's best hit")
	)
	flag.Parse()
	if *qPath == "" || *dbPath == "" {
		flag.Usage()
		os.Exit(2)
	}

	queries, err := fasta.ReadFile(*qPath)
	if err != nil {
		fail("%v", err)
	}
	db, err := fasta.ReadFile(*dbPath)
	if err != nil {
		fail("%v", err)
	}
	fmt.Printf("comparing %d queries to %d database sequences on %d GPU + %d SSE (%s, adjust=%v)\n",
		len(queries), len(db), *gpus, *sse, *policy, *adjust)

	rep, err := hybridsw.Search(queries, db, hybridsw.Platform{
		GPUs:      *gpus,
		SSECores:  *sse,
		Policy:    *policy,
		Adjust:    *adjust,
		Omega:     *omega,
		TopK:      *topK,
		AlignBest: *doAln,
	})
	if err != nil {
		fail("%v", err)
	}
	var residues int64
	for _, d := range db {
		residues += int64(d.Len())
	}
	queryLen := map[string]int{}
	for _, q := range queries {
		queryLen[q.ID] = q.Len()
	}

	for _, r := range rep.PerQuery {
		fmt.Printf("\n%s  (finished by slave %d at %s s", r.Query, r.Slave, gcups.Seconds(r.Elapsed))
		if r.Replicas > 0 {
			fmt.Printf(", %d replica(s) via workload adjustment", r.Replicas)
		}
		fmt.Println(")")
		for i, h := range r.Hits {
			fmt.Printf("  %2d. %-12s score %d", i+1, h.SeqID, h.Score)
			if e, ok := hybridsw.HitEValue(hybridsw.DefaultScheme(), h.Score, queryLen[r.Query], residues); ok {
				fmt.Printf("  E=%.2g", e)
			}
			fmt.Println()
		}
		if *doAln && len(r.Hits) > 0 && len(r.Hits[0].QueryRow) > 0 {
			best := r.Hits[0]
			a := hybridsw.Alignment{
				Score:      best.Score,
				QueryStart: best.QueryStart, QueryEnd: best.QueryEnd,
				TargetStart: best.TargetStart, TargetEnd: best.TargetEnd,
				QueryRow: best.QueryRow, TargetRow: best.TargetRow,
			}
			fmt.Print(a.Format(hybridsw.DefaultScheme(), 60))
		}
	}
	fmt.Printf("\ntotal: %s s wall clock, %.3f GCUPS\n", gcups.Seconds(rep.Elapsed), rep.GCUPS())
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "swsearch: "+format+"\n", args...)
	os.Exit(1)
}
