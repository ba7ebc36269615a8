package main

import (
	"math/rand"
	"time"

	"faultmem/internal/exp"
	"faultmem/internal/fault"
	"faultmem/internal/memstore"
	"faultmem/internal/stats"
	"faultmem/internal/workload"
	"faultmem/internal/yield"
)

// Outside estimates of the fault-draw, scheme-scoring and accumulator
// layers: the same public calls the campaigns make, timed in loops on
// the workload's own Pcell and failure-count prior (a Binomial count
// conditioned on at least one failure). They are labelled as estimates
// in the output; on yield-cdf their sum is compared with the traced
// shard busy time.

// The log10-MSE domain of the fig5 histogram accumulator.
const mseLogMin, mseLogMax = -8, 20

// splitEstimate is the per-die cost split of draw, score and add.
type splitEstimate struct {
	drawUS      float64 // per die, on the workload's own draw path
	samplerUS   float64 // per die, RowSampler.Draw
	scoreNS     float64 // per die per arm, Scheme.RowMSE via RowSampler.MSE
	addNS       float64 // per sample, LogHistogram.Add
	mergeMS     float64 // merging one accumulator per engine shard
	cellsPerDie float64
}

// estimateSplit times dies draws at (rows, pcell). trialPath selects the
// TrialRunner's draw (fault.GenerateCount) for drawUS instead of the
// fig5 RowSampler.
func estimateSplit(seed int64, rows int, pcell float64, dies int, trialPath bool) splitEstimate {
	var est splitEstimate
	counts := make([]int, dies)
	rng := stats.Derive(seed, 7001)
	cells := rows * 32
	total := 0
	for i := range counts {
		for counts[i] == 0 {
			counts[i] = stats.SampleBinomial(rng, cells, pcell)
		}
		total += counts[i]
	}
	est.cellsPerDie = float64(total) / float64(dies)

	schemes := make([]yield.Scheme, 0, 7)
	for _, a := range exp.Fig5Arms() {
		schemes = append(schemes, a.YieldScheme())
	}
	sampler := yield.NewRowSampler(rows, 32)
	loop := func(score, add bool, accs []stats.Accumulator) float64 {
		r := rand.New(rand.NewSource(seed))
		t0 := time.Now()
		for _, n := range counts {
			sampler.Draw(r, n)
			if !score {
				continue
			}
			for j, s := range schemes {
				mse := sampler.MSE(s)
				if add {
					accs[j].Add(mse, 1)
				}
			}
		}
		return time.Since(t0).Seconds()
	}
	accs := make([]stats.Accumulator, len(schemes))
	for j := range accs {
		accs[j] = stats.NewLogHistogram(0, mseLogMin, mseLogMax)
	}
	draw := loop(false, false, nil)
	scored := loop(true, false, nil)
	added := loop(true, true, accs)
	fd := float64(dies)
	est.samplerUS = draw / fd * 1e6
	est.scoreNS = max(scored-draw, 0) / fd / float64(len(schemes)) * 1e9
	est.addNS = max(added-scored, 0) / fd / float64(len(schemes)) * 1e9
	est.drawUS = est.samplerUS
	if trialPath {
		r := rand.New(rand.NewSource(seed))
		t0 := time.Now()
		for _, n := range counts {
			fault.GenerateCount(r, rows, 32, n, fault.Flip)
		}
		est.drawUS = time.Since(t0).Seconds() / fd * 1e6
	}

	// Merge: one filled accumulator per engine shard into a fresh one,
	// as MSECDFAllEnv merges each arm.
	shards := make([]stats.Accumulator, 64)
	for i := range shards {
		h := stats.NewLogHistogram(0, mseLogMin, mseLogMax)
		h.Merge(accs[i%len(accs)])
		shards[i] = h
	}
	t0 := time.Now()
	into := stats.NewLogHistogram(0, mseLogMin, mseLogMax)
	for _, s := range shards {
		into.Merge(s)
	}
	est.mergeMS = time.Since(t0).Seconds() * 1e3
	return est
}

// fig5Trips is the memory-layer probe of yield-cdf, which simulates no
// memory itself: dies drawn from the fig5 prior (Rows x 32 at Pcell
// 5e-6) installed in each fig5 arm's real memory and round-tripped with
// a seed-derived image, plain and checked.
func fig5Trips(seed int64, dies int) (tripStats, tripStats, error) {
	p := exp.DefaultFig5Params().CDF
	rng := stats.Derive(seed, 7002)
	codec := memstore.DefaultCodec()
	vals := make([]float64, p.Rows)
	for i := range vals {
		vals[i] = (rng.Float64()*2 - 1) * 1000
	}
	ws := &workload.Workspace{Codec: codec}
	codec.EncodeValuesInto(&ws.Store, vals)
	sampler := yield.NewRowSampler(p.Rows, p.Width)
	nextDie := func() fault.Map {
		n := 0
		for n == 0 {
			n = stats.SampleBinomial(rng, p.Cells(), p.Pcell)
		}
		sampler.Draw(rng, n)
		return sampler.Faults(fault.Flip)
	}
	plain, err := timeTrips(ws, exp.Fig5Arms(), p.Rows, dies, nil, nextDie)
	if err != nil {
		return plain, plain, err
	}
	checked, err := timeTrips(ws, exp.Fig5Arms(), p.Rows, dies, &memstore.Recovery{}, nextDie)
	return plain, checked, err
}
