package stats

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestMBps(t *testing.T) {
	if got := MBps(1e6, time.Second); got != 1 {
		t.Fatalf("MBps = %v", got)
	}
	if got := MBps(100, 0); got != 0 {
		t.Fatalf("zero duration MBps = %v", got)
	}
	if got := MBps(3e6, 2*time.Second); got != 1.5 {
		t.Fatalf("MBps = %v", got)
	}
}

func TestSpeedup(t *testing.T) {
	if got := Speedup(4*time.Second, 2*time.Second); got != 2 {
		t.Fatalf("Speedup = %v", got)
	}
	if got := Speedup(time.Second, 0); got != 0 {
		t.Fatalf("Speedup by zero = %v", got)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("T1: demo", "devices", "MB/s", "time")
	tb.AddRow(1, 1.5, 1500*time.Millisecond)
	tb.AddRow(16, 23.456789, 90*time.Millisecond)
	tb.Note = "shape only"
	s := tb.String()
	for _, want := range []string{"T1: demo", "devices", "MB/s", "1.5", "23.5", "1.500s", "90.00ms", "note: shape only", "---"} {
		if !strings.Contains(s, want) {
			t.Fatalf("table output missing %q:\n%s", want, s)
		}
	}
	if tb.Rows() != 2 {
		t.Fatalf("Rows = %d", tb.Rows())
	}
	if tb.Cell(0, 0) != "1" {
		t.Fatalf("Cell(0,0) = %q", tb.Cell(0, 0))
	}
}

func TestTableDurationFormats(t *testing.T) {
	tb := NewTable("", "d")
	tb.AddRow(2 * time.Hour)
	tb.AddRow(90 * time.Microsecond)
	s := tb.String()
	if !strings.Contains(s, "2.0h") || !strings.Contains(s, "90µs") {
		t.Fatalf("duration formats wrong:\n%s", s)
	}
}

func TestWelford(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.N() != 8 {
		t.Fatalf("N = %d", w.N())
	}
	if w.Mean() != 5 {
		t.Fatalf("Mean = %v", w.Mean())
	}
	if math.Abs(w.Var()-32.0/7.0) > 1e-9 {
		t.Fatalf("Var = %v", w.Var())
	}
	if w.Min() != 2 || w.Max() != 9 {
		t.Fatalf("min/max = %v/%v", w.Min(), w.Max())
	}
	var empty Welford
	if empty.Var() != 0 {
		t.Fatal("empty variance")
	}
}

func TestSampleQuantiles(t *testing.T) {
	var s Sample
	if s.Quantile(0.5) != 0 || s.Mean() != 0 || s.Max() != 0 {
		t.Fatal("empty sample should report zeros")
	}
	// Insert out of order; quantiles must see the sorted view.
	for _, x := range []float64{9, 1, 5, 3, 7, 2, 8, 4, 6, 10} {
		s.Add(x)
	}
	if s.N() != 10 {
		t.Fatalf("N = %d", s.N())
	}
	// Nearest-rank: P50 of 10 obs is the 5th smallest, P99 the 10th.
	if got := s.P50(); got != 5 {
		t.Fatalf("P50 = %v", got)
	}
	if got := s.P95(); got != 10 {
		t.Fatalf("P95 = %v", got)
	}
	if got := s.P99(); got != 10 {
		t.Fatalf("P99 = %v", got)
	}
	if got := s.Quantile(0); got != 1 {
		t.Fatalf("Q0 = %v", got)
	}
	if got := s.Max(); got != 10 {
		t.Fatalf("Max = %v", got)
	}
	if got := s.Mean(); got != 5.5 {
		t.Fatalf("Mean = %v", got)
	}
	// Adding after a quantile read re-sorts.
	s.Add(0.5)
	if got := s.Quantile(0); got != 0.5 {
		t.Fatalf("Q0 after re-add = %v", got)
	}
	var d Sample
	d.AddDuration(30 * time.Millisecond)
	d.AddDuration(10 * time.Millisecond)
	if got := d.QuantileDur(1); got != 30*time.Millisecond {
		t.Fatalf("QuantileDur = %v", got)
	}
}

func TestIntervalUnionAndOverlap(t *testing.T) {
	iv := func(from, to time.Duration) Interval { return Interval{From: from, To: to} }
	a := Union([]Interval{iv(5, 9), iv(0, 2), iv(1, 3), iv(4, 4), iv(8, 12)})
	if len(a) != 2 || a[0] != iv(0, 3) || a[1] != iv(5, 12) {
		t.Fatalf("Union = %v, want [{0 3} {5 12}] (empty interval dropped)", a)
	}
	if got := Covered(a); got != 10 {
		t.Fatalf("Covered = %v, want 10", got)
	}
	b := Union([]Interval{iv(2, 6), iv(11, 20)})
	if got := Overlap(a, b); got != 3 { // [2,3) + [5,6) + [11,12)
		t.Fatalf("Overlap = %v, want 3", got)
	}
	if Overlap(a, nil) != 0 || Covered(Union(nil)) != 0 {
		t.Fatal("empty covers must contribute nothing")
	}
}
