package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	hybridsw "repro"
	"repro/internal/httpapi"
	"repro/internal/seq"
	"repro/internal/wire"
)

const (
	// deepSample is how many answers per workload get every hit rescored
	// with the scalar reference.
	deepSample = 32
	// plantedMinLen is the query length from which a missing planted
	// source counts as a failure; shorter queries can lose to chance hits.
	plantedMinLen = 100
	// auditLen is the length of the two full-mode audit queries whose whole
	// top-k is compared with a brute-force scalar scan (2 x 90 M cells).
	auditLen = 120
)

// verifier checks answers against the database the server was given,
// after the timed window.
type verifier struct {
	db     []*seq.Sequence
	index  map[string]int
	scheme hybridsw.Scheme
}

func newVerifier(db []*seq.Sequence) *verifier {
	v := &verifier{db: db, index: make(map[string]int, len(db)), scheme: hybridsw.DefaultScheme()}
	for i, d := range db {
		v.index[d.ID] = i
	}
	return v
}

// answer is a verified-so-far response with its hits resolved to database
// positions.
type answer struct {
	resp *httpapi.SearchResponse
	hits [][]wire.Hit // per query of the request, in request order
}

// shallow applies the checks every request gets: transport and status,
// shape, hit order under wire.HitLess, and the planted source's presence.
func (v *verifier) shallow(r *record) (*answer, error) {
	if r.err != nil {
		return nil, fmt.Errorf("transport: %w", r.err)
	}
	if r.status != http.StatusOK {
		return nil, fmt.Errorf("status %d: %.120s", r.status, r.body)
	}
	var resp httpapi.SearchResponse
	if err := json.Unmarshal(r.body, &resp); err != nil {
		return nil, fmt.Errorf("body: %w", err)
	}
	if (resp.Filter != nil) != (r.req.Mode == "filtered") {
		return nil, fmt.Errorf("mode %q answered with filter block present=%v", r.req.Mode, resp.Filter != nil)
	}
	byQuery := make(map[string][]httpapi.SearchHit, len(resp.Results))
	for _, res := range resp.Results {
		byQuery[res.Query] = res.Hits
	}
	if len(resp.Results) != len(r.req.Queries) || len(byQuery) != len(r.req.Queries) {
		return nil, fmt.Errorf("%d results for %d queries", len(resp.Results), len(r.req.Queries))
	}
	a := &answer{resp: &resp}
	for _, q := range r.req.Queries {
		shits, ok := byQuery[q.ID]
		if !ok {
			return nil, fmt.Errorf("no result for query %s", q.ID)
		}
		if len(shits) > topK {
			return nil, fmt.Errorf("query %s: %d hits exceed top_k %d", q.ID, len(shits), topK)
		}
		hits := make([]wire.Hit, len(shits))
		planted := false
		for i, h := range shits {
			idx, ok := v.index[h.SeqID]
			if !ok {
				return nil, fmt.Errorf("query %s: unknown seq_id %q", q.ID, h.SeqID)
			}
			hits[i] = wire.Hit{SeqID: h.SeqID, Index: idx, Score: h.Score}
			if i > 0 && !wire.HitLess(hits[i-1], hits[i]) {
				return nil, fmt.Errorf("query %s: hits %d and %d are out of order", q.ID, i-1, i)
			}
			planted = planted || idx == q.Source
		}
		if !planted && q.Len() >= plantedMinLen {
			return nil, fmt.Errorf("query %s: planted source %s is not among the hits", q.ID, v.db[q.Source].ID)
		}
		a.hits = append(a.hits, hits)
	}
	return a, nil
}

// deep rescores every returned hit with the scalar reference: equal in
// full mode; in filtered mode the window score may only fall short.
func (v *verifier) deep(r *record, a *answer) error {
	for qi, q := range r.req.Queries {
		for _, h := range a.hits[qi] {
			want := hybridsw.Score(q.Residues, v.db[h.Index].Residues, v.scheme)
			if h.Score == want || (r.req.Mode == "filtered" && h.Score < want) {
				continue
			}
			return fmt.Errorf("query %s vs %s: score %d, scalar reference %d", q.ID, h.SeqID, h.Score, want)
		}
	}
	return nil
}

// bruteForce is the reference top-k: a scalar scan of the whole database.
func (v *verifier) bruteForce(q query) []wire.Hit {
	hits := make([]wire.Hit, len(v.db))
	for i, d := range v.db {
		hits[i] = wire.Hit{SeqID: d.ID, Index: i, Score: hybridsw.Score(q.Residues, d.Residues, v.scheme)}
	}
	wire.SortHits(hits)
	return hits[:min(topK, len(hits))]
}

// audit checks a full-mode one-query answer hit for hit against bruteForce.
func (v *verifier) audit(r *record, a *answer) error {
	want := v.bruteForce(r.req.Queries[0])
	got := a.hits[0]
	if len(got) != len(want) {
		return fmt.Errorf("audit %s: %d hits, brute force has %d", r.req.Queries[0].ID, len(got), len(want))
	}
	for i := range want {
		if got[i].Index != want[i].Index || got[i].Score != want[i].Score {
			return fmt.Errorf("audit %s: hit %d is %s/%d, brute force says %s/%d", r.req.Queries[0].ID, i,
				got[i].SeqID, got[i].Score, want[i].SeqID, want[i].Score)
		}
	}
	return nil
}

// verify marks every record (window and audits) with its failure, if any,
// and keeps the parsed answers of the window's records for the metrics.
// The scalar rescoring is spread over the machine's cores: the server is
// idle or stopped by now.
func (v *verifier) verify(window, audits []record) []*answer {
	answers := make([]*answer, len(window))
	var deepIdx []int
	for i := range window {
		a, err := v.shallow(&window[i])
		if err != nil {
			window[i].failure = err.Error()
			continue
		}
		answers[i] = a
		deepIdx = append(deepIdx, i)
	}
	// An evenly spaced sample of the answered requests gets the deep check.
	if len(deepIdx) > deepSample {
		step := float64(len(deepIdx)) / deepSample
		picked := make([]int, deepSample)
		for k := range picked {
			picked[k] = deepIdx[int(float64(k)*step)]
		}
		deepIdx = picked
	}
	// The audits are the longest tasks: listed first, striping hands one to
	// each worker.
	var tasks []func()
	for i := range audits {
		tasks = append(tasks, func() {
			a, err := v.shallow(&audits[i])
			if err == nil {
				err = v.audit(&audits[i], a)
			}
			if err != nil {
				audits[i].failure = err.Error()
			}
		})
	}
	for _, i := range deepIdx {
		tasks = append(tasks, func() {
			if err := v.deep(&window[i], answers[i]); err != nil {
				window[i].failure = err.Error()
			}
		})
	}
	var wg sync.WaitGroup
	for w := 0; w < engines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := w; k < len(tasks); k += engines {
				tasks[k]()
			}
		}(w)
	}
	wg.Wait()
	return answers
}
