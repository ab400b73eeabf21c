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
	q := newQueue(nil)
	for _, j := range []*job{qjob("a", 0), qjob("b", 1), qjob("c", 0), qjob("d", 1), qjob("e", 2)} {
		q.push(j)
	}
	got := fmt.Sprint(popOrder(q))
	// Highest priority first, submission order within a level.
	if want := "[e b d a c]"; got != want {
		t.Fatalf("pop order %s, want %s", got, want)
	}
}

func TestQueueRemove(t *testing.T) {
	q := newQueue(nil)
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
