package jobs

import (
	"fmt"
	"testing"
)

func qjob(id string, prio int) *job {
	return &job{Job: Job{ID: id, Request: Request{Priority: prio}}}
}

func popOrder(q *queue) []string {
	var out []string
	for j := q.pop(); j != nil; j = q.pop() {
		out = append(out, j.ID)
	}
	return out
}

func TestQueuePriorityFIFO(t *testing.T) {
	q := newQueue(10, nil)
	for _, j := range []*job{qjob("a", 0), qjob("b", 1), qjob("c", 0), qjob("d", 1), qjob("e", 2)} {
		if !q.push(j) {
			t.Fatalf("push %s rejected", j.ID)
		}
	}
	got := fmt.Sprint(popOrder(q))
	// Highest priority first, submission order within a level.
	if want := "[e b d a c]"; got != want {
		t.Fatalf("pop order %s, want %s", got, want)
	}
}

func TestQueueBoundAndForcePush(t *testing.T) {
	q := newQueue(2, nil)
	if !q.push(qjob("a", 0)) || !q.push(qjob("b", 0)) {
		t.Fatal("pushes under capacity rejected")
	}
	if q.push(qjob("c", 0)) {
		t.Fatal("push over capacity accepted")
	}
	q.forcePush(qjob("d", 5))
	if q.len() != 3 {
		t.Fatalf("len = %d after forcePush", q.len())
	}
	if j := q.pop(); j.ID != "d" {
		t.Fatalf("head after forcePush = %s", j.ID)
	}
	// The temporary bound lift must not stick: two items remain (= max),
	// so a regular push is rejected until one drains.
	if q.push(qjob("e", 0)) {
		t.Fatal("bound did not restore after forcePush")
	}
	q.pop()
	if !q.push(qjob("f", 0)) {
		t.Fatal("push below capacity rejected")
	}
}

func TestQueueRemove(t *testing.T) {
	q := newQueue(0, nil)
	a, b, c := qjob("a", 0), qjob("b", 0), qjob("c", 0)
	q.push(a)
	q.push(b)
	q.push(c)
	if !q.remove(b) {
		t.Fatal("remove of present job failed")
	}
	if q.remove(b) {
		t.Fatal("second remove succeeded")
	}
	if got := fmt.Sprint(popOrder(q)); got != "[a c]" {
		t.Fatalf("after remove: %s", got)
	}
	if q.pop() != nil {
		t.Fatal("pop of empty queue returned a job")
	}
}
