package main

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); !near(got, tc.want) {
			t.Errorf("median(%v) = %g, want %g", tc.xs, got, tc.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

// TestQuartilesMatchPython pins the quartiles to Python's
// statistics.quantiles(xs, n=4) ("exclusive" method), the rule the
// benchmark's spread is judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1}, 0.5, 2, 3.5},
		{[]float64{0.93, 0.81, 1.02, 0.88, 0.97}, 0.845, 0.93, 0.995},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if !near(q1, tc.q1) || !near(q2, tc.q2) || !near(q3, tc.q3) {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, (8.25-2.75)/5.5) {
		t.Errorf("spread = %g", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, tc := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {90, 5}, {100, 5}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(%g) = %g, want %g", tc.p, got, tc.want)
		}
	}
}

// TestFailureAccounting pins how failed campaigns reach the result:
// counted in failed, lowering ok_frac, and making the run incorrect.
func TestFailureAccounting(t *testing.T) {
	ds := []time.Duration{time.Second, 3 * time.Second, 2 * time.Second}
	rep := &report{Attempted: 4, Failed: 1}
	endToEnd(rep, ds, ds, 100, 10*time.Second, 3<<20)
	if rep.Correct {
		t.Error("a run with a failed campaign must not be correct")
	}
	if got := rep.Metrics["ok_frac"].Value; !near(got, 0.75) {
		t.Errorf("ok_frac = %g, want 0.75", got)
	}
	if got := rep.Metrics["campaign_s"].Value; !near(got, 2) {
		t.Errorf("campaign_s = %g, want the median 2", got)
	}
	if got := rep.Metrics["dies_per_s"].Value; !near(got, 10) {
		t.Errorf("dies_per_s = %g, want 10", got)
	}
	if got := rep.Metrics["peak_rss_mb"].Value; !near(got, 3) {
		t.Errorf("peak_rss_mb = %g, want 3", got)
	}

	ok := &report{Attempted: 3}
	endToEnd(ok, ds, ds, 1, time.Second, 1)
	if !ok.Correct || ok.Metrics["ok_frac"].Value != 1 {
		t.Errorf("clean run: correct %v, ok_frac %g", ok.Correct, ok.Metrics["ok_frac"].Value)
	}
	if failedFrac(0, 0) != 0 || failedFrac(4, 1) != 0.25 {
		t.Error("failedFrac")
	}

	var log strings.Builder
	bad := setupFailed(&log, errors.New("no convergence"), time.Second)
	if bad.Correct || bad.Attempted != 1 || bad.Failed != 1 || bad.Metrics["ok_frac"].Value != 0 {
		t.Errorf("failed set-up result %+v", bad)
	}
	if len(bad.Metrics) != 5 || !strings.Contains(log.String(), "no convergence") {
		t.Errorf("failed set-up must report every end-to-end metric and the cause: %v %q", bad.Metrics, log.String())
	}
}
