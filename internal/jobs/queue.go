package jobs

import "sort"

// queue is the Manager's bounded admission queue: one priority FIFO per
// tenant (highest Priority first, submission order within a level), popped
// from the backlogged tenant with the lowest virtual pass in the TenantBook
// — fair queueing with a DRF charge, and priority ordering within (not
// across) tenants, so one tenant's priority inflation cannot starve
// another. With a single tenant it is exactly that tenant's priority FIFO.
// Every transition is mirrored into the book so quota and fairness
// accounting stay exact. It is not safe for concurrent use; the Manager
// serializes access under its mutex.
type queue struct {
	max   int
	book  *TenantBook
	lists map[string][]*job // per tenant
	names []string          // sorted keys of lists (deterministic pop scans)
	n     int
}

func newQueue(max int, book *TenantBook) *queue {
	if book == nil {
		book = NewTenantBook(nil, TenantConfig{})
	}
	return &queue{max: max, book: book, lists: map[string][]*job{}}
}

func (q *queue) len() int { return q.n }

// push appends j in priority position within its bucket; it reports false
// when the queue is at capacity (admission control rejects, never blocks).
func (q *queue) push(j *job) bool {
	if q.max > 0 && q.n >= q.max {
		return false
	}
	key := j.Request.Tenant
	items, ok := q.lists[key]
	if !ok {
		q.names = append(q.names, key)
		sort.Strings(q.names)
	}
	// Insert after the last item with priority >= j's: stable within a
	// level. Queues are small (bounded); linear scan is fine.
	i := len(items)
	for i > 0 && items[i-1].Request.Priority < j.Request.Priority {
		i--
	}
	items = append(items, nil)
	copy(items[i+1:], items[i:])
	items[i] = j
	q.lists[key] = items
	q.n++
	q.book.Enqueue(j.Request.Tenant, j.Request.Residues)
	return true
}

// forcePush inserts j regardless of capacity — recovery re-enqueues every
// surviving job even when the configured bound shrank, and a job bumped by
// a shutdown abort must never be dropped.
func (q *queue) forcePush(j *job) {
	max := q.max
	q.max = 0
	q.push(j)
	q.max = max
}

// pop removes and returns the next job — the fair-queue head — or nil when
// empty. The dequeue is charged to the tenant's pass in the book.
func (q *queue) pop() *job {
	if q.n == 0 {
		return nil
	}
	bestKey, have := "", false
	var bestPass float64
	for _, key := range q.names {
		if len(q.lists[key]) == 0 {
			continue
		}
		pass := q.book.Pass(key)
		if !have || pass < bestPass {
			bestKey, bestPass, have = key, pass, true
		}
	}
	items := q.lists[bestKey]
	j := items[0]
	copy(items, items[1:])
	items[len(items)-1] = nil
	q.lists[bestKey] = items[:len(items)-1]
	q.n--
	q.book.Dequeue(j.Request.Tenant, j.Request.Queries, j.Request.Residues)
	return j
}

// remove drops a specific job (cancellation of a queued job); it reports
// whether the job was present.
func (q *queue) remove(j *job) bool {
	key := j.Request.Tenant
	items := q.lists[key]
	for i, it := range items {
		if it == j {
			copy(items[i:], items[i+1:])
			items[len(items)-1] = nil
			q.lists[key] = items[:len(items)-1]
			q.n--
			q.book.Remove(j.Request.Tenant, j.Request.Residues)
			return true
		}
	}
	return false
}
