package jobs

import (
	"fmt"
	"math"
	"time"
)

// Reference capacities normalizing the two resources of a request under
// dominant-resource fairness (DRF): a request's share is
// max(queries/DRFRefQueries, residues/DRFRefResidues), so a
// many-short-queries tenant and a few-huge-queries tenant are charged by
// whichever dimension they actually dominate.
const (
	DRFRefQueries  = 64
	DRFRefResidues = 1 << 20
)

// MaxRetryAfter caps the depth-scaled backpressure hint.
const MaxRetryAfter = 60 * time.Second

// RetryAfterFor scales a rejection's retry hint with the backlog that has
// to drain first — the global queue depth for queue_full, the rejected
// tenant's own outstanding jobs for tenant_quota: base ×
// (1 + depth/(2×executors)), capped at MaxRetryAfter. No backlog hints the
// base; dozens of jobs per executor hint the minute range — honest
// backpressure instead of a fixed constant.
func RetryAfterFor(base time.Duration, depth, executors int) time.Duration {
	if base <= 0 {
		base = DefaultRetryAfter
	}
	if executors < 1 {
		executors = 1
	}
	if depth < 0 {
		depth = 0
	}
	d := base * time.Duration(1+depth/(2*executors))
	if d > MaxRetryAfter {
		return MaxRetryAfter
	}
	return d
}

// TenantConfig is one tenant's scheduling contract.
type TenantConfig struct {
	// Weight scales the tenant's fair share; 0 means 1. It must be finite
	// and not negative (New rejects anything else).
	Weight float64
	// MaxOutstanding caps the tenant's queued+running jobs; 0 means
	// unlimited.
	MaxOutstanding int
	// MaxOutstandingResidues caps the tenant's queued+running declared
	// residues; 0 means unlimited.
	MaxOutstandingResidues int64
}

// checkWeight rejects a tenant weight that is negative, infinite or NaN.
func checkWeight(w float64) error {
	if !(w >= 0) || math.IsInf(w, 1) {
		return fmt.Errorf("weight %v is not a finite number >= 0", w)
	}
	return nil
}

// tenantState is one tenant's live accounting.
type tenantState struct {
	queued, running                 int
	queuedResidues, runningResidues int64
	servedResidues                  int64
	pass                            float64
}

// TenantBook is the pure per-tenant accounting behind the Manager's fair
// queue — the one place tenant shares are computed: quota admission,
// queued/running counts, and the virtual-time passes that drive the DRF
// dequeue order. It is not safe for concurrent use; the Manager serializes
// every call under its mutex.
type TenantBook struct {
	defaults TenantConfig
	cfg      map[string]TenantConfig
	state    map[string]*tenantState
	// vclock is the system virtual time: the pass of the most recent
	// dequeue. Tenants going from idle to backlogged rejoin at vclock, so
	// an idle spell never banks credit and a returning tenant never
	// starves the queue while it catches up.
	vclock float64
}

// NewTenantBook builds an empty book. cfg maps tenant names to their
// contracts; defaults applies to unlisted tenants (including "").
func NewTenantBook(cfg map[string]TenantConfig, defaults TenantConfig) *TenantBook {
	return &TenantBook{
		defaults: defaults,
		cfg:      cfg,
		state:    map[string]*tenantState{},
	}
}

// Limits resolves a tenant's contract.
func (b *TenantBook) Limits(tenant string) TenantConfig {
	if c, ok := b.cfg[tenant]; ok {
		return c
	}
	return b.defaults
}

// Weight resolves a tenant's fair-share weight.
func (b *TenantBook) Weight(tenant string) float64 {
	if w := b.Limits(tenant).Weight; w > 0 {
		return w
	}
	return 1
}

func (b *TenantBook) stateOf(tenant string) *tenantState {
	st := b.state[tenant]
	if st == nil {
		st = &tenantState{}
		b.state[tenant] = st
	}
	return st
}

// Admit checks one prospective submission against the tenant's quota and
// returns the rejection (reason "tenant_quota") that the HTTP layer maps to
// 429, or nil. It mutates nothing.
func (b *TenantBook) Admit(tenant string, residues int64) *RejectError {
	lim := b.Limits(tenant)
	st := b.stateOf(tenant)
	out := st.queued + st.running
	outRes := st.queuedResidues + st.runningResidues
	switch {
	case lim.MaxOutstanding > 0 && out+1 > lim.MaxOutstanding:
		return &RejectError{
			Reason: "tenant_quota",
			Detail: fmt.Sprintf("tenant %q has %d outstanding jobs (quota %d)", tenant, out, lim.MaxOutstanding),
		}
	case lim.MaxOutstandingResidues > 0 && outRes+residues > lim.MaxOutstandingResidues:
		return &RejectError{
			Reason: "tenant_quota",
			Detail: fmt.Sprintf("tenant %q has %d outstanding residues (quota %d)", tenant, outRes, lim.MaxOutstandingResidues),
		}
	}
	return nil
}

// Enqueue records a job entering the queue. A tenant going from idle to
// backlogged rejoins the virtual clock at its current value.
func (b *TenantBook) Enqueue(tenant string, residues int64) {
	st := b.stateOf(tenant)
	if st.queued+st.running == 0 && st.pass < b.vclock {
		st.pass = b.vclock
	}
	st.queued++
	st.queuedResidues += residues
}

// cost is the pass charge of one dequeued request: its dominant share.
func cost(queries int, residues int64) float64 {
	q := float64(max(queries, 1)) / DRFRefQueries
	r := float64(max(residues, 1)) / DRFRefResidues
	return max(q, r)
}

// Dequeue records a job moving from queued to running and charges the
// tenant's pass — the service-start charge of start-time fair queueing.
func (b *TenantBook) Dequeue(tenant string, queries int, residues int64) {
	st := b.stateOf(tenant)
	st.queued--
	st.queuedResidues -= residues
	st.running++
	st.runningResidues += residues
	if st.pass > b.vclock {
		b.vclock = st.pass
	}
	st.pass += cost(queries, residues) / b.Weight(tenant)
}

// Remove records a queued job leaving without running (cancellation). No
// pass charge: the tenant consumed no service.
func (b *TenantBook) Remove(tenant string, residues int64) {
	st := b.stateOf(tenant)
	st.queued--
	st.queuedResidues -= residues
}

// Finish records a running job ending. served marks a successful run,
// crediting the tenant's served-residues total (the fairness observable).
func (b *TenantBook) Finish(tenant string, residues int64, served bool) {
	st := b.stateOf(tenant)
	st.running--
	st.runningResidues -= residues
	if served {
		st.servedResidues += residues
	}
}

// Pass returns a tenant's virtual pass (dequeue priority: lowest first).
func (b *TenantBook) Pass(tenant string) float64 { return b.stateOf(tenant).pass }

// Outstanding reports a tenant's queued+running jobs and residues.
func (b *TenantBook) Outstanding(tenant string) (jobs int, residues int64) {
	st := b.stateOf(tenant)
	return st.queued + st.running, st.queuedResidues + st.runningResidues
}

// Queued reports a tenant's queued jobs.
func (b *TenantBook) Queued(tenant string) int { return b.stateOf(tenant).queued }

// Running reports a tenant's running jobs.
func (b *TenantBook) Running(tenant string) int { return b.stateOf(tenant).running }

// ServedResidues reports a tenant's successfully served residues.
func (b *TenantBook) ServedResidues(tenant string) int64 { return b.stateOf(tenant).servedResidues }

// Check audits every counter for impossible (negative) values — the
// property-test oracle for "quota accounting never goes negative".
func (b *TenantBook) Check() error {
	for name, st := range b.state {
		if st.queued < 0 || st.running < 0 || st.queuedResidues < 0 || st.runningResidues < 0 {
			return fmt.Errorf("jobs: tenant %q accounting went negative: %+v", name, *st)
		}
	}
	return nil
}
