package vtime

import (
	"testing"
	"time"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	s := New()
	var got []int
	s.After(3*time.Second, func() { got = append(got, 3) })
	s.After(1*time.Second, func() { got = append(got, 1) })
	s.After(2*time.Second, func() { got = append(got, 2) })
	if _, err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("order = %v", got)
	}
	if s.Now() != 3*time.Second {
		t.Errorf("Now = %v, want 3s", s.Now())
	}
}

func TestTieBreakBySchedulingOrder(t *testing.T) {
	s := New()
	var got []string
	s.After(time.Second, func() { got = append(got, "a") })
	s.After(time.Second, func() { got = append(got, "b") })
	s.After(time.Second, func() { got = append(got, "c") })
	s.Run(0)
	if string(got[0][0])+string(got[1][0])+string(got[2][0]) != "abc" {
		t.Errorf("tie order = %v, want scheduling order", got)
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New()
	var fired []time.Duration
	s.After(time.Second, func() {
		fired = append(fired, s.Now())
		s.After(time.Second, func() { fired = append(fired, s.Now()) })
	})
	s.Run(0)
	if len(fired) != 2 || fired[0] != time.Second || fired[1] != 2*time.Second {
		t.Errorf("fired = %v", fired)
	}
}

func TestCancel(t *testing.T) {
	s := New()
	fired := false
	e := s.After(time.Second, func() { fired = true })
	e.Cancel()
	n, _ := s.Run(0)
	if fired {
		t.Error("canceled event fired")
	}
	if n != 0 {
		t.Errorf("Run fired %d events", n)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := New()
	s.After(time.Second, func() {})
	s.Run(0)
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past should panic")
		}
	}()
	s.Schedule(time.Millisecond, func() {})
}

func TestAfterNegativePanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Error("negative After should panic")
		}
	}()
	s.After(-time.Second, func() {})
}

func TestRunBound(t *testing.T) {
	s := New()
	var rearm func()
	n := 0
	rearm = func() {
		n++
		s.After(time.Second, rearm)
	}
	s.After(time.Second, rearm)
	fired, err := s.Run(100)
	if err == nil {
		t.Error("unbounded loop not detected")
	}
	if fired != 100 {
		t.Errorf("fired = %d, want 100", fired)
	}
}

func TestZeroDelayEventRunsNow(t *testing.T) {
	s := New()
	s.After(time.Second, func() {
		at := s.Now()
		s.After(0, func() {
			if s.Now() != at {
				t.Errorf("zero-delay event at %v, want %v", s.Now(), at)
			}
		})
	})
	s.Run(0)
}
