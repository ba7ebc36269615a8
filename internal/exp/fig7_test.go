package exp

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"faultmem/internal/fault"
	"faultmem/internal/memstore"
	"faultmem/internal/stats"
	"faultmem/internal/workload"
)

// newFig7TestRunner builds the per-shard trial runner the Fig. 7 engine
// uses, for white-box perf tests.
func newFig7TestRunner(p Fig7Params, inst workload.Instance) *workload.TrialRunner {
	return workload.NewTrialRunner(inst, workload.Config{
		Name:  strings.ToLower(p.App.String()),
		Rows:  p.Rows,
		Pcell: p.Pcell,
		Arms:  workloadArms(Fig7Arms()),
	})
}

// TestQualityAtYieldQuantileConvention pins the ceil(level*n)-1
// empirical-quantile fix: the level-quantile is the smallest sample with
// Pr(quality <= q) >= level, matching stats.WeightedCDF.Quantile — not
// the sample one position above it.
func TestQualityAtYieldQuantileConvention(t *testing.T) {
	arm := Fig7Arm{Qualities: []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}}
	cases := []struct {
		level, want float64
	}{
		{0.10, 0.1}, // the old int(level*n) indexing read 0.2 here
		{0.50, 0.5},
		{0.55, 0.6},
		{1.00, 1.0},
	}
	for _, c := range cases {
		if got := arm.QualityAtYield(c.level); got != c.want {
			t.Errorf("QualityAtYield(%g) = %g, want %g", c.level, got, c.want)
		}
	}

	// The 60-trial case from the bug report: q10 must be the 6th-smallest
	// sample (index 5), not the 7th.
	qs := make([]float64, 60)
	for i := range qs {
		qs[i] = float64(i + 1)
	}
	arm60 := Fig7Arm{Qualities: qs}
	if got := arm60.QualityAtYield(0.10); got != 6 {
		t.Errorf("q10 of 60 trials = sample %g, want 6 (index 5)", got)
	}

	// Cross-check the convention against stats.WeightedCDF on random
	// samples and levels.
	rng := rand.New(rand.NewSource(9))
	for rep := 0; rep < 20; rep++ {
		n := 1 + rng.Intn(40)
		sample := make([]float64, n)
		var cdf stats.WeightedCDF
		for i := range sample {
			sample[i] = rng.Float64()
			cdf.Add(sample[i], 1)
		}
		a := Fig7Arm{Qualities: append([]float64(nil), sample...)}
		sortFloats(a.Qualities)
		level := rng.Float64()
		if level == 0 {
			level = 0.5
		}
		if got, want := a.QualityAtYield(level), cdf.Quantile(level); got != want {
			t.Fatalf("n=%d level=%g: QualityAtYield %g != WeightedCDF.Quantile %g", n, level, got, want)
		}
	}
}

func sortFloats(s []float64) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// TestCDFAtEmptyArm pins the 0/0 fix: an empty arm has no mass below any
// threshold, so CDFAt reports 0 instead of NaN (QualityAtYield keeps its
// panic-on-empty contract).
func TestCDFAtEmptyArm(t *testing.T) {
	var arm Fig7Arm
	if got := arm.CDFAt(0.5); got != 0 || math.IsNaN(got) {
		t.Errorf("CDFAt on empty arm = %v, want 0", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("QualityAtYield on empty arm did not panic")
		}
	}()
	arm.QualityAtYield(0.5)
}

// TestFig7TrialWarmAllocs pins the workspace payoff end to end: a warm
// Fig. 7 trial (fault map + 4 arms + round-trip + retrain + score) runs
// with 7 allocations for each app — the count BenchmarkFig7Trial*
// measures once its workspace is warm — down from 400-700 on the fresh
// (pre-workspace) path. The bound is the measured count: a new
// allocation on the warm path fails here.
func TestFig7TrialWarmAllocs(t *testing.T) {
	for _, c := range []struct {
		app  App
		want float64
	}{{AppElasticnet, 7}, {AppPCA, 7}, {AppKNN, 7}} {
		p := DefaultFig7Params(c.app)
		w, err := p.prepare()
		if err != nil {
			t.Fatal(err)
		}
		seedBase := stats.DeriveSeed(p.Seed, 1000)
		runner := newFig7TestRunner(p, w)
		var buf []float64
		for trial := 0; trial < 3; trial++ { // warm up every arm's scratch
			if buf, err = runner.RunTrial(seedBase, trial, buf[:0]); err != nil {
				t.Fatal(err)
			}
		}
		trial := 3
		allocs := testing.AllocsPerRun(5, func() {
			var err error
			buf, err = runner.RunTrial(seedBase, trial, buf[:0])
			if err != nil {
				t.Error(err)
			}
			trial++
		})
		if allocs > c.want {
			t.Errorf("warm %v trial allocates %v times, want <= %v", c.app, allocs, c.want)
		}
	}
}

// benchFig7Trial measures ONE Monte-Carlo trial (fault map + all four
// protection arms + round-trip + model retrain + score), the unit the
// Trials budget scales by. warm=true runs the engine's actual per-shard
// path (workload.TrialRunner: reused memories, round-trip scratch, and
// ML fit workspaces); warm=false rebuilds the memories, the quantized
// word cache, and the fit buffers every trial — the pre-workspace
// behaviour — for the before/after allocation comparison.
func benchFig7Trial(b *testing.B, app App, warm bool) {
	p := DefaultFig7Params(app)
	w, err := p.prepare()
	if err != nil {
		b.Fatal(err)
	}
	seedBase := stats.DeriveSeed(p.Seed, 1000)
	b.ReportAllocs()
	if warm {
		runner := newFig7TestRunner(p, w)
		var buf []float64
		// Warm every arm's scratch first, as TestFig7TrialWarmAllocs does:
		// the cold first trial builds the shard's workspace (hundreds of
		// allocations) and would otherwise be amortized into allocs/op
		// by however few iterations -benchtime asks for.
		for i := 0; i < 3; i++ {
			if buf, err = runner.RunTrial(seedBase, i, buf[:0]); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if buf, err = runner.RunTrial(seedBase, 3+i, buf[:0]); err != nil {
				b.Fatal(err)
			}
		}
		return
	}
	cells := p.Rows * 32
	arms := Fig7Arms()
	sink := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := stats.Derive(seedBase, int64(i))
		n := 0
		for n == 0 {
			n = stats.SampleBinomial(rng, cells, p.Pcell)
		}
		fm := fault.GenerateCount(rng, p.Rows, 32, n, fault.Flip)
		for _, arm := range arms {
			m, err := arm.Build(p.Rows, fm)
			if err != nil {
				b.Fatal(err)
			}
			ws := workload.Workspace{Codec: memstore.DefaultCodec(), Mem: m}
			w.StoreOn(&ws)
			q, err := w.RunTrial(&ws, nil)
			if err != nil {
				b.Fatal(err)
			}
			sink += q
		}
	}
	_ = sink
}

// BenchmarkFig7Trial* pin the per-trial cost of the Fig. 7 engine with
// warm per-shard workspaces; the *Fresh variants rebuild memories and
// ml fit buffers per trial for comparison.
func BenchmarkFig7TrialElasticnet(b *testing.B) { benchFig7Trial(b, AppElasticnet, true) }
func BenchmarkFig7TrialPCA(b *testing.B)        { benchFig7Trial(b, AppPCA, true) }
func BenchmarkFig7TrialKNN(b *testing.B)        { benchFig7Trial(b, AppKNN, true) }

// BenchmarkFig7TrialPCAPaper runs the warm PCA trial at the paper's
// full 500-feature Madelon geometry — the workload whose O(d^3) Jacobi
// sweeps motivated the top-k subspace eigensolver.
func BenchmarkFig7TrialPCAPaper(b *testing.B) {
	p := DefaultFig7Params(AppPCA)
	p.MadelonPaperSize = true
	w, err := p.prepare()
	if err != nil {
		b.Fatal(err)
	}
	seedBase := stats.DeriveSeed(p.Seed, 1000)
	runner := newFig7TestRunner(p, w)
	var buf []float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if buf, err = runner.RunTrial(seedBase, i, buf[:0]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7TrialElasticnetFresh(b *testing.B) { benchFig7Trial(b, AppElasticnet, false) }
func BenchmarkFig7TrialPCAFresh(b *testing.B)        { benchFig7Trial(b, AppPCA, false) }
func BenchmarkFig7TrialKNNFresh(b *testing.B)        { benchFig7Trial(b, AppKNN, false) }
