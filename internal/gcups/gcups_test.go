package gcups

import (
	"strings"
	"testing"
	"time"
)

func TestGCUPS(t *testing.T) {
	if got := GCUPS(35e9, time.Second); got != 35 {
		t.Errorf("GCUPS = %v", got)
	}
	if got := GCUPS(100, 0); got != 0 {
		t.Errorf("GCUPS with zero duration = %v", got)
	}
	if got := GCUPS(2e9, 4*time.Second); got != 0.5 {
		t.Errorf("GCUPS = %v, want 0.5", got)
	}
}

func TestSeconds(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{1500 * time.Millisecond, "1.5"},
		{99 * time.Second, "99.0"},
		{112 * time.Second, "112"},
		{7190 * time.Second, "7,190"},
		{1234567 * time.Second, "1,234,567"},
	}
	for _, c := range cases {
		if got := Seconds(c.d); got != c.want {
			t.Errorf("Seconds(%v) = %q, want %q", c.d, got, c.want)
		}
	}
}

func TestBucketize(t *testing.T) {
	times := []time.Duration{0, 500 * time.Millisecond, 1200 * time.Millisecond}
	rates := []float64{2e9, 4e9, 6e9}
	s := Bucketize("core0", times, rates, time.Second, 2*time.Second)
	if len(s.Points) != 3 {
		t.Fatalf("points = %d", len(s.Points))
	}
	if s.Points[0].GCUPS != 3 { // (2+4)/2
		t.Errorf("bucket 0 = %v, want 3", s.Points[0].GCUPS)
	}
	if s.Points[1].GCUPS != 6 {
		t.Errorf("bucket 1 = %v, want 6", s.Points[1].GCUPS)
	}
	if s.Points[2].GCUPS != 0 {
		t.Errorf("empty bucket = %v, want 0", s.Points[2].GCUPS)
	}
}

func TestBucketizeDegenerate(t *testing.T) {
	if got := Bucketize("x", nil, nil, 0, time.Second); len(got.Points) != 0 {
		t.Error("zero step should produce no points")
	}
	// Samples beyond `until` are dropped rather than panicking.
	s := Bucketize("x", []time.Duration{10 * time.Second}, []float64{1e9}, time.Second, 2*time.Second)
	for _, p := range s.Points {
		if p.GCUPS != 0 {
			t.Error("out-of-range sample leaked into a bucket")
		}
	}
}

func TestSeriesMeans(t *testing.T) {
	s := Series{Points: []Point{
		{T: 0, GCUPS: 2},
		{T: time.Second, GCUPS: 4},
		{T: 2 * time.Second, GCUPS: 6},
	}}
	if got := s.Mean(); got != 4 {
		t.Errorf("Mean = %v", got)
	}
	if got := (Series{}).Mean(); got != 0 {
		t.Errorf("empty Mean = %v", got)
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{
		Title:  "Results for the GPUs",
		Header: []string{"Database", "1 GPU", "2 GPUs"},
	}
	tab.AddRow("SwissProt", 487*time.Second, 244*time.Second)
	tab.AddRow("Dog", 12.345, 6.789)
	out := tab.String()
	for _, want := range []string{"Results for the GPUs", "Database", "SwissProt", "487", "12.35", "==="} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Header and data rows must have equal rendered width (alignment).
	if len(lines[2]) == 0 || len(lines) < 6 {
		t.Fatalf("unexpected table layout:\n%s", out)
	}
}

func TestTableNoHeader(t *testing.T) {
	tab := &Table{}
	tab.AddRow("a", 1)
	out := tab.String()
	if strings.Contains(out, "---") {
		t.Errorf("headerless table should not draw a rule:\n%s", out)
	}
}

func TestTableCSV(t *testing.T) {
	tab := &Table{Header: []string{"Database", "Time (s)"}}
	tab.AddRow(`Swiss"Prot, full`, 7190*time.Second)
	tab.AddRow("Dog", 57.4)
	got := tab.CSV()
	want := "Database,Time (s)\n\"Swiss\"\"Prot, full\",\"7,190\"\nDog,57.40\n"
	if got != want {
		t.Errorf("CSV = %q, want %q", got, want)
	}
}
