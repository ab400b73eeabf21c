package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"repro/internal/fasta"
	"repro/internal/httpapi"
	"repro/internal/seq"
)

// Fixed set-up shared by every workload (see bench/README.md).
const (
	dbProfile = "UniProtKB/SwissProt"
	dbScale   = 0.004 // seed 1: 2150 sequences, 750 324 residues
	topK      = 10
	// substShare is the share of a planted query's residues that are point
	// substituted, so the source stays the clear best hit while the 8-bit
	// kernel tier still overflows on it.
	substShare = 0.10
	// openLoopInFlight caps the open-loop generator's concurrent requests.
	openLoopInFlight = 16
	clientTimeout    = 15 * time.Second
)

// Request classes: one per closed-loop workload, three inside serve_mix.
const (
	classBatch    = "batch"
	classSingle   = "single"
	classFiltered = "filtered"
	classShort    = "short"
	classMedium   = "medium"
	classRepeat   = "repeat"
)

// query is one planted query: a mutated window of database sequence Source.
type query struct {
	*seq.Sequence
	Source int
}

// request is one POST /search the generator will send.
type request struct {
	Seq     int
	Class   string
	Tenant  string
	Mode    string // "" (full) or "filtered"
	Queries []query
	// Due is the open-loop send time as an offset from the window start;
	// zero in closed-loop workloads, where a request is due when the
	// previous one completes.
	Due  time.Duration
	Body []byte
}

// sequences returns the request's queries as the library's type.
func (r *request) sequences() []*seq.Sequence {
	out := make([]*seq.Sequence, len(r.Queries))
	for i, q := range r.Queries {
		out[i] = q.Sequence
	}
	return out
}

// residues is the request's total query length.
func (r *request) residues() int64 {
	var n int64
	for _, q := range r.Queries {
		n += int64(q.Len())
	}
	return n
}

// workload is one traffic shape. Closed-loop workloads repeat cycle until
// the window's time is up; every cycle carries the same multiset of query
// lengths (only their order and content depend on the seed), so any whole
// number of cycles has the same length distribution and two runs that
// complete a different number of requests still report comparable medians.
type workload struct {
	Name string
	// ServerArgs are appended to the fixed swserve flags.
	ServerArgs []string
	// Cluster marks the sharded backend (ServerArgs carry its flags).
	Cluster bool
	// JobsDir asks for a durable -jobs-dir under the run's work directory.
	JobsDir bool
	// Mode and FilterK apply to every request and to the warm-up.
	Mode    string
	FilterK int
	// Rate > 0 makes the workload open loop at Rate requests per second;
	// cycle then yields one block of ten arrivals.
	Rate  float64
	cycle func(g *generator) []request
}

var workloads = []workload{
	{Name: "scan_batch", cycle: batchCycle},
	{Name: "single_query", cycle: singleCycle},
	{
		Name:       "cluster_filtered",
		ServerArgs: []string{"-backend", "cluster", "-shards", "2", "-replicas", "2"},
		Cluster:    true,
		Mode:       "filtered",
		FilterK:    5,
		cycle:      filteredCycle,
	},
	{
		Name:       "serve_mix",
		ServerArgs: []string{"-tenant-policy", "drf", "-tenants", "alice:1:0,bob:1:0"},
		JobsDir:    true,
		Rate:       4,
		cycle:      mixBlock,
	},
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// generator turns (seed, workload) into a request list: the n-th request
// drawn is a pure function of the two.
type generator struct {
	w    *workload
	db   []*seq.Sequence
	rng  *rand.Rand
	seed int64
	next int // next request sequence number
	nq   int // next query number, for unique ids
	// longest is the longest database sequence, the cap on a planted query.
	longest int
	hot     []query // serve_mix: the repeated queries
	med     []int   // serve_mix: medium lengths left in the current round
}

func newGenerator(w *workload, db []*seq.Sequence, seed int64) *generator {
	h := fnv.New64a()
	_, _ = h.Write([]byte(w.Name))
	g := &generator{w: w, db: db, seed: seed}
	for _, d := range db {
		g.longest = max(g.longest, d.Len())
	}
	g.rng = rand.New(rand.NewSource(seed*1_000_003 + int64(h.Sum64()>>1)))
	return g
}

const aminoAcids = "ACDEFGHIKLMNPQRSTVWY"

// plant cuts a random window of the wanted length out of a random database
// sequence and substitutes a tenth of its residues, under a fresh id: the
// request misses the result cache and the source is a known true hit.
func (g *generator) plant(length int) query {
	length = min(length, g.longest) // only a shrunken test database is that short
	var src int
	for {
		src = g.rng.Intn(len(g.db))
		if g.db[src].Len() >= length {
			break
		}
	}
	start := g.rng.Intn(g.db[src].Len() - length + 1)
	res := append([]byte(nil), g.db[src].Residues[start:start+length]...)
	for n := int(float64(length)*substShare + 0.5); n > 0; n-- {
		i := g.rng.Intn(length)
		c := aminoAcids[g.rng.Intn(len(aminoAcids))]
		for c == res[i] {
			c = aminoAcids[g.rng.Intn(len(aminoAcids))]
		}
		res[i] = c
	}
	g.nq++
	id := fmt.Sprintf("%s.s%d.q%06d", g.w.Name, g.seed, g.nq)
	return query{Sequence: &seq.Sequence{ID: id, Residues: res}, Source: src}
}

// audit is a one-query full-mode request, whatever the workload's mode.
func (g *generator) audit() request {
	return g.build("audit", "", "", 0, g.plant(auditLen))
}

// request assembles one request in the workload's mode.
func (g *generator) request(class, tenant string, queries ...query) request {
	return g.build(class, tenant, g.w.Mode, g.w.FilterK, queries...)
}

func (g *generator) build(class, tenant, mode string, filterK int, queries ...query) request {
	r := request{Seq: g.next, Class: class, Tenant: tenant, Mode: mode, Queries: queries}
	g.next++
	var fa bytes.Buffer
	fw := fasta.NewWriter(&fa)
	fw.Wrap = 0
	err := fw.WriteAll(r.sequences())
	var body []byte
	if err == nil {
		body, err = json.Marshal(httpapi.SearchRequest{QueriesFasta: fa.String(), TopK: topK, Mode: mode, FilterK: filterK})
	}
	if err != nil {
		panic(err) // writing to a buffer and encoding strings and ints cannot fail
	}
	r.Body = body
	return r
}

// shuffled returns a seeded permutation of lengths.
func (g *generator) shuffled(lengths ...int) []int {
	g.rng.Shuffle(len(lengths), func(i, j int) { lengths[i], lengths[j] = lengths[j], lengths[i] })
	return lengths
}

// batchCycle: one request of six queries, 100-600 aa (2100 aa, ~1.6 G cells).
func batchCycle(g *generator) []request {
	var qs []query
	for _, n := range g.shuffled(100, 200, 300, 400, 500, 600) {
		qs = append(qs, g.plant(n))
	}
	return []request{g.request(classBatch, "", qs...)}
}

// singleCycle: five one-query requests, 200-600 aa.
func singleCycle(g *generator) []request {
	var out []request
	for _, n := range g.shuffled(200, 300, 400, 500, 600) {
		out = append(out, g.request(classSingle, "", g.plant(n)))
	}
	return out
}

// filteredCycle: eight two-query requests, 200-600 aa in 16 even steps.
func filteredCycle(g *generator) []request {
	lengths := make([]int, 16)
	for i := range lengths {
		lengths[i] = 200 + i*400/15
	}
	g.shuffled(lengths...)
	var out []request
	for i := 0; i < len(lengths); i += 2 {
		out = append(out, g.request(classFiltered, "", g.plant(lengths[i]), g.plant(lengths[i+1])))
	}
	return out
}

// mixBlock: ten arrivals — seven unique short queries (alice) and two
// repeats of a hot short query (alice) in seeded order, then one unique
// medium (bob). The medium is every tenth arrival so that two of them never
// land together: that blocks both executors for a second, happens zero to
// three times in a 20 s window, and alone moved the window's p50 by a third.
func mixBlock(g *generator) []request {
	for i := 0; len(g.hot) < 8; i++ {
		g.hot = append(g.hot, g.plant(10+4*i))
	}
	classes := []string{classShort, classShort, classShort, classShort, classShort, classShort, classShort,
		classRepeat, classRepeat, classMedium}
	g.rng.Shuffle(len(classes)-1, func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })
	short := g.shuffled(10, 15, 20, 25, 30, 35, 40)
	var out []request
	for _, class := range classes {
		var r request
		switch class {
		case classShort:
			r = g.request(class, "alice", g.plant(short[0]))
			short = short[1:]
		case classMedium:
			if len(g.med) == 0 {
				g.med = g.shuffled(150, 200, 250, 300)
			}
			r = g.request(class, "bob", g.plant(g.med[0]))
			g.med = g.med[1:]
		default:
			r = g.request(class, "alice", g.hot[g.rng.Intn(len(g.hot))])
		}
		out = append(out, r)
	}
	return out
}

// arrivals returns the open-loop request list of a window: whole blocks
// of ten, Rate x window requests in all, the i-th due at a uniformly drawn
// time inside the i-th of that many equal slots. Count and pace are fixed,
// so two seeds offer the same load and differ in the jitter and the order.
// (Poisson arrival times made 80 samples' p50 differ by 20-30 % between
// seeds; see bench/README.md.)
func (g *generator) arrivals(window time.Duration) []request {
	blocks := max(1, int(g.w.Rate*window.Seconds()/10+0.5))
	var out []request
	for b := 0; b < blocks; b++ {
		out = append(out, g.w.cycle(g)...)
	}
	for i := range out {
		out[i].Due = time.Duration((float64(i) + g.rng.Float64()) / float64(len(out)) * float64(window))
	}
	return out
}
