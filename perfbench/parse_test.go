package main

import (
	"os"
	"strings"
	"testing"
	"time"

	"faultmem/internal/exp"
	"faultmem/internal/serve"
)

func TestParseDrain(t *testing.T) {
	log := []string{
		"faultmem serve: listening on 127.0.0.1:40111",
		"faultmem serve: sweep: session 7f3a opened from 127.0.0.1:51234",
		"faultmem serve: draining",
		"faultmem serve: stopped (48 shards remote, 2 local, 1 reassigned)",
	}
	got := parseDrain(log)
	if want := (drainStats{Remote: 48, Local: 2, Reassigned: 1, Found: true}); got != want {
		t.Errorf("parseDrain = %+v, want %+v", got, want)
	}
	if parseDrain(log[:3]).Found {
		t.Error("a log without the stop line must not report drain counters")
	}
	if m := joinLine.FindString(log[1]); m == "" {
		t.Error("join line not recognized")
	}
	if m := listenLine.FindStringSubmatch(log[0]); m == nil || m[1] != "127.0.0.1:40111" {
		t.Errorf("listen line parsed as %v", m)
	}
}

func TestParseStatusKB(t *testing.T) {
	status := "Name:\tfaultmem\nVmPeak:\t  900000 kB\nVmHWM:\t   40960 kB\nVmRSS:\t   30000 kB\n"
	got, err := parseStatusKB(strings.NewReader(status), "VmRSS")
	if err != nil || got != 30000*1024 {
		t.Errorf("parseStatusKB = %d, %v", got, err)
	}
	if _, err := parseStatusKB(strings.NewReader("VmHWM:\t1 kB\n"), "VmRSS"); err == nil {
		t.Error("a missing line must be an error")
	}
	if _, err := parseStatusKB(strings.NewReader("VmRSS:\tlots\n"), "VmRSS"); err == nil {
		t.Error("a malformed line must be an error")
	}
}

// TestSampleRSS samples this process and stops cleanly.
func TestSampleRSS(t *testing.T) {
	s := sampleRSS([]int{os.Getpid()}, time.Millisecond)
	time.Sleep(5 * time.Millisecond)
	xs, err := s.finish()
	if err != nil || len(xs) == 0 || xs[0] <= 0 {
		t.Errorf("samples %v, %v", xs, err)
	}
}

// TestParseProgress walks a snapshot stream: stage walls run from the
// previous stage's completion, coarse progress counters are ignored,
// and the final closes a stage that never showed 100%.
func TestParseProgress(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	snap := func(ms int, stages ...serve.StageProgress) snapAt {
		return snapAt{at: at(ms), snap: serve.JobSnapshot{ID: 1, State: serve.StateRunning, Stages: stages}}
	}
	a, b := "workloads/pca", "workloads/knn"
	stream := []snapAt{
		snap(100),
		snap(200, serve.StageProgress{Stage: a, Done: 1, Total: 2}),
		snap(300, serve.StageProgress{Stage: a, Done: 2, Total: 2},
			serve.StageProgress{Stage: "workloads/workloads", Done: 1, Total: 2}),
		snap(400, serve.StageProgress{Stage: a, Done: 2, Total: 2},
			serve.StageProgress{Stage: b, Done: 1, Total: 2}),
	}
	p := parseProgress(t0, at(450), stream, []string{a, b})
	if !p.firstProgress.Equal(at(200)) {
		t.Errorf("first progress at %v, want +200ms", p.firstProgress.Sub(t0))
	}
	if len(p.stages) != 2 || p.stages[0] != a || p.stages[1] != b {
		t.Fatalf("stages %v", p.stages)
	}
	if !near(p.walls[0], 0.3) || !near(p.walls[1], 0.15) {
		t.Errorf("walls %v, want [0.3 0.15]", p.walls)
	}
	if !p.complete.IsZero() {
		t.Error("no snapshot showed every stage complete")
	}

	log := &snapLog{}
	for _, s := range stream {
		log.on(s.snap, 0)
	}
	runs := []jobRun{{id: 1, submit: t0, admitted: at(2), final: at(450), resultLen: 900}}
	st := summarizeServed(runs, log, []string{a, b})
	if !near(st.admitMS, 2) || st.finalBytes != 900 || len(st.series) != 2 {
		t.Errorf("summarizeServed = %+v", st)
	}
}

func resultWith(name string, tables ...*exp.Table) *exp.Result {
	return &exp.Result{Experiment: name, Tables: tables}
}

func TestHeadlines(t *testing.T) {
	fig5 := resultWith("fig5", &exp.Table{
		Title:  "Fig. 5 derived - MSE tolerated at yield targets and quality-aware yield",
		Header: []string{"scheme", "MSE@yield 0.8", "MSE@yield 0.9", "reduction vs none @0.8", "yield@MSE<1e+06"},
		Rows: [][]string{
			{"No Correction", "1.0e+09", "1.000e+12", "1.0x", "0.720600"},
			{"nFM=1-Bit", "2.5e+02", "1.000e+04", "4078055.0x", "0.999912"},
		},
	})
	h, err := headlines(fig5)
	if err != nil {
		t.Fatal(err)
	}
	if !near(h["log10_reduction_nfm1_at_0.9"], 8) || !near(h["yield_at_mse_1e6/nFM=1-Bit"], 0.999912) {
		t.Errorf("fig5 headlines %v", h)
	}

	wl := resultWith("workloads", &exp.Table{
		Title:  "Workload summary - PCA (explained variance)",
		Header: []string{"scheme", "mean quality", "q10"},
		Rows:   [][]string{{"No Correction", "0.2000", "0.1"}, {"H(39,32) ECC", "0.5000", "0.4"}},
	})
	h, err = headlines(wl)
	if err != nil || !near(h["mean_quality/PCA/H(39,32) ECC"], 0.5) {
		t.Errorf("workloads headlines %v, %v", h, err)
	}

	bad := resultWith("workloads", &exp.Table{
		Title:  "Workload summary - PCA (explained variance)",
		Header: []string{"scheme", "mean quality"},
		Rows:   [][]string{{"No Correction", "1.5"}},
	})
	if _, err := headlines(bad); err == nil {
		t.Error("a quality above 1 must be rejected")
	}

	rec := resultWith("recovery", &exp.Table{
		Title:  "Recovery - CG Solve mean quality by arm and policy (16KB, Pcell=1e-03, transient=1e-04)",
		Header: []string{"scheme", "none", "saferestore"},
		Rows:   [][]string{{"H(39,32) ECC", "0.1000", "0.9900"}},
	})
	h, err = headlines(rec)
	if err != nil || !near(h["mean_quality/saferestore/H(39,32) ECC"], 0.99) {
		t.Errorf("recovery headlines %v, %v", h, err)
	}
	if _, err := headlines(resultWith("fig2")); err == nil {
		t.Error("an experiment without a headline rule must be an error")
	}
}

func TestCheckHeadlines(t *testing.T) {
	want := map[string]bound{"a": {Ref: 0.5, Tol: 0.1}, "b": {Ref: 1, Tol: 0}}
	if err := checkHeadlines(map[string]float64{"a": 0.55, "b": 1}, want); err != nil {
		t.Errorf("within tolerance: %v", err)
	}
	if err := checkHeadlines(map[string]float64{"a": 0.7, "b": 1}, want); err == nil {
		t.Error("a deviation beyond the tolerance must fail")
	}
	if err := checkHeadlines(map[string]float64{"a": 0.5}, want); err == nil {
		t.Error("a missing headline must fail")
	}
	if err := checkHeadlines(nil, nil); err == nil {
		t.Error("an empty reference must fail")
	}
}

// TestReferencesCoverLocalWorkloads pins that every local workload has
// recorded headlines to check against.
func TestReferencesCoverLocalWorkloads(t *testing.T) {
	refs, err := references()
	if err != nil {
		t.Fatal(err)
	}
	for _, lw := range []*localWorkload{yieldCDF, mlTrials, recoveryChecked} {
		if len(refs[lw.name]) == 0 {
			t.Errorf("no reference headlines for %s", lw.name)
		}
	}
}
