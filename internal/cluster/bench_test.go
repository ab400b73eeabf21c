package cluster_test

import (
	"context"
	"fmt"
	"testing"

	"repro"
	"repro/internal/cluster"
	"repro/internal/sw"
)

// alignSink keeps the benchmarked traceback from being optimized away.
var alignSink *sw.Alignment

// BenchmarkSearchAlignBest prices phase 2 of a search: one 200- or 400-aa
// query, top 10, against the serving benchmark's database (SwissProt
// profile at scale 0.004, seed 1: 2 150 sequences, 750 324 residues) on 1
// shard x 2 engines and 2 shards x 2 replicas, with AlignBest off and on.
// The traceback rows time sw.AlignLinearSpace of the query's best pair
// alone, which is what align=on should add to align=off.
//
//	go test ./internal/cluster -run '^$' -bench SearchAlignBest -count 5
func BenchmarkSearchAlignBest(b *testing.B) {
	db, err := hybridsw.GenerateDatabase("UniProtKB/SwissProt", 0.004, 1)
	if err != nil {
		b.Fatal(err)
	}
	scheme := hybridsw.DefaultScheme()
	for _, shards := range []int{1, 2} {
		fleet, err := cluster.New(cluster.Config{DB: db, Shards: shards, Replicas: 2, Scheme: scheme})
		if err != nil {
			b.Fatal(err)
		}
		for _, n := range []int{200, 400} {
			queries := hybridsw.GenerateQueries(db, 1, n, n, 7)
			// The first search builds the ranges' lane layouts; keep it
			// out of the timings, and take the best pair from it.
			rep, err := fleet.SearchContext(context.Background(), queries, cluster.Params{TopK: 10})
			if err != nil {
				b.Fatal(err)
			}
			best := db[rep.PerQuery[0].Hits[0].Index]
			if shards == 1 {
				b.Run(fmt.Sprintf("traceback/len=%d", n), func(b *testing.B) {
					for range b.N {
						alignSink = sw.AlignLinearSpace(queries[0].Residues, best.Residues, scheme)
					}
				})
			}
			for _, align := range []bool{false, true} {
				b.Run(fmt.Sprintf("shards=%d/len=%d/align=%v", shards, n, align), func(b *testing.B) {
					p := cluster.Params{TopK: 10, AlignBest: align}
					for range b.N {
						if _, err := fleet.SearchContext(context.Background(), queries, p); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}
