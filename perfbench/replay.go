package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"time"

	"faultmem/internal/exp"
	"faultmem/internal/fault"
	"faultmem/internal/mc"
	"faultmem/internal/mem"
	"faultmem/internal/memstore"
	"faultmem/internal/stats"
	"faultmem/internal/workload"
)

// The trial replay: the quality engine of the workloads and recovery
// campaigns re-driven from the benchmark — workload.NewTrialRunner over
// traced arms, one engine shard per span of trials exactly as the
// campaign splits them — so memory and compute time can be separated.
// Its sorted per-arm qualities must equal the untraced campaign's.

// trialStage is one engine stage of a trial campaign: one workload under
// one recovery policy.
type trialStage struct {
	name      string // stage label: the workload or the policy
	app       string // workload name
	policy    workload.RecoveryPolicy
	transient float64
}

// trialCampaign is a trial campaign's geometry and stages, plus the
// untraced typed run the replay must reproduce.
type trialCampaign struct {
	rows   int
	pcell  float64
	trials int
	seed   int64
	stages []trialStage
	// reference runs the campaign untraced through the typed API and
	// returns each stage's per-arm sorted qualities and recovery
	// counters.
	reference func(ctx context.Context) ([][][]float64, [][]memstore.RecoveryStats, error)
}

// workloadsCampaign is the workloads campaign at the given trial budget.
func workloadsCampaign(trials int, seed int64) trialCampaign {
	p := exp.DefaultWorkloadsParams()
	p.Trials, p.Seed, p.Workers = trials, seed, benchWorkers
	tc := trialCampaign{rows: p.Rows, pcell: p.Pcell, trials: p.Trials, seed: p.Seed}
	for _, n := range p.Workloads {
		tc.stages = append(tc.stages, trialStage{name: n, app: n})
	}
	tc.reference = func(ctx context.Context) ([][][]float64, [][]memstore.RecoveryStats, error) {
		res, err := exp.WorkloadsEnv(mc.Env{Ctx: ctx}, p)
		if err != nil {
			return nil, nil, err
		}
		var qs [][][]float64
		for _, run := range res.Runs {
			qs = append(qs, armQualities(run.Arms))
		}
		return qs, make([][]memstore.RecoveryStats, len(qs)), nil
	}
	return tc
}

// recoveryCampaign is the default recovery campaign at the given trial
// budget.
func recoveryCampaign(trials int, seed int64) trialCampaign {
	p := exp.DefaultRecoveryParams()
	p.Trials, p.Seed, p.Workers = trials, seed, benchWorkers
	tc := trialCampaign{rows: p.Rows, pcell: p.Pcell, trials: p.Trials, seed: p.Seed}
	for _, n := range p.Policies {
		k, err := workload.ParsePolicy(n)
		if err != nil {
			panic(err) // the campaign's own default policy names
		}
		tc.stages = append(tc.stages, trialStage{name: n, app: p.Workload, transient: p.TransientRate,
			policy: workload.RecoveryPolicy{Kind: k, Retries: p.Retries, SafeWords: p.SafeWords}})
	}
	tc.reference = func(ctx context.Context) ([][][]float64, [][]memstore.RecoveryStats, error) {
		res, err := exp.RecoveryEnv(mc.Env{Ctx: ctx}, p)
		if err != nil {
			return nil, nil, err
		}
		var qs [][][]float64
		var rs [][]memstore.RecoveryStats
		for _, run := range res.Runs {
			qs = append(qs, armQualities(run.Arms))
			rs = append(rs, run.Stats)
		}
		return qs, rs, nil
	}
	return tc
}

func armQualities(arms []exp.Fig7Arm) [][]float64 {
	out := make([][]float64, len(arms))
	for i, a := range arms {
		out[i] = a.Qualities
	}
	return out
}

// stageReplay is one replayed stage.
type stageReplay struct {
	stage     trialStage
	qualities [][]float64 // per arm, sorted
	recovery  []memstore.RecoveryStats
	mem       []memStats // per arm
	trials    int
	// Times summed over shards: trial calls, the part of them inside
	// the memory (install, write, read), the fault-free twin, and shard
	// time outside any trial (runner set-up, bookkeeping).
	trialS, memS, twinS, shardSelfS float64
	wallS                           float64
}

// computeS is the workload's own time: trial time minus memory and
// twin time.
func (r *stageReplay) computeS() float64 { return r.trialS - r.memS - r.twinS }

// replayOut is one replay shard's result.
type replayOut struct {
	qs            []float64
	recovery      []memstore.RecoveryStats
	mem           []memStats
	trialS, busyS float64
	err           error
}

// replayStage runs one stage through traced arms on the engine.
func replayStage(ctx context.Context, tr *tracer, campaign int, tc trialCampaign, st trialStage) (*stageReplay, error) {
	id, err := workload.Parse(st.app)
	if err != nil {
		return nil, err
	}
	inst, err := workload.PrepareShared(id, workload.Params{Seed: tc.seed})
	if err != nil {
		return nil, err
	}
	arms := exp.AllProtections()
	seedBase := stats.DeriveSeed(tc.seed, 1000)
	spans := mc.Split(tc.trials, mc.Workers(benchWorkers))
	env := mc.Env{Ctx: ctx, Tag: "replay/" + st.name}
	t0 := time.Now()
	outs, err := mc.RunEnv(env, benchWorkers, len(spans), seedBase, func(shard int, _ *rand.Rand) replayOut {
		s0 := time.Now()
		span := spans[shard]
		rec := newMemRecorder(len(arms))
		runner := workload.NewTrialRunner(inst, workload.Config{
			Name: st.app, Rows: tc.rows, Pcell: tc.pcell, Arms: tracedArms(arms, rec),
			Policy: st.policy, TransientRate: st.transient,
		})
		o := replayOut{qs: make([]float64, 0, (span.End-span.Start)*len(arms))}
		for trial := span.Start; trial < span.End; trial++ {
			a := time.Now()
			qs, err := runner.RunTrial(seedBase, trial, o.qs)
			b := time.Now()
			rec.endDie()
			tr.add("workload.trial."+st.name, campaign, 0, a, b)
			o.qs, o.trialS = qs, o.trialS+b.Sub(a).Seconds()
			if err != nil {
				o.err = err
				break
			}
		}
		o.recovery, o.mem = runner.RecoveryStats(), rec.arms
		o.busyS = time.Since(s0).Seconds()
		return o
	})
	wall := time.Since(t0).Seconds()
	if err != nil {
		return nil, err
	}
	r := &stageReplay{stage: st, trials: tc.trials, mem: make([]memStats, len(arms)), wallS: wall,
		recovery: make([]memstore.RecoveryStats, len(arms)), qualities: make([][]float64, len(arms))}
	for _, o := range outs {
		if o.err != nil {
			return nil, o.err
		}
		r.trialS += o.trialS
		r.shardSelfS += o.busyS - o.trialS
		for ai := range arms {
			r.mem[ai].add(o.mem[ai])
			r.memS += o.mem[ai].memS()
			r.twinS += o.mem[ai].overheadS
			if o.recovery != nil {
				r.recovery[ai].Merge(o.recovery[ai])
			}
			for t := 0; t*len(arms) < len(o.qs); t++ {
				r.qualities[ai] = append(r.qualities[ai], o.qs[t*len(arms)+ai])
			}
		}
	}
	for ai := range arms {
		sort.Float64s(r.qualities[ai])
	}
	return r, nil
}

// replayCampaign replays every stage and checks the result against the
// untraced typed run: identical sorted per-arm qualities and recovery
// counters. It also returns the untraced run's heap allocations per
// trial.
func replayCampaign(ctx context.Context, tr *tracer, tc trialCampaign) ([]*stageReplay, float64, float64, error) {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	wantQ, wantR, err := tc.reference(ctx)
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("untraced reference: %w", err)
	}
	trials := float64(tc.trials * len(tc.stages))
	allocs := float64(ms1.Mallocs-ms0.Mallocs) / trials
	bytes := float64(ms1.TotalAlloc-ms0.TotalAlloc) / trials

	var out []*stageReplay
	for si, st := range tc.stages {
		r, err := replayStage(ctx, tr, 1, tc, st)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("replay %s: %w", st.name, err)
		}
		for ai := range r.qualities {
			if !slices.Equal(r.qualities[ai], wantQ[si][ai]) {
				return nil, 0, 0, fmt.Errorf("replay %s arm %v: qualities differ from the untraced campaign", st.name, exp.AllProtections()[ai])
			}
		}
		if st.policy.Active() && !slices.Equal(r.recovery, wantR[si]) {
			return nil, 0, 0, fmt.Errorf("replay %s: recovery counters %v differ from the untraced campaign's %v", st.name, r.recovery, wantR[si])
		}
		out = append(out, r)
	}
	return out, allocs, bytes, nil
}

// tripStats is the outside estimate of one memstore round trip: the
// codec's self time (trip minus memory and twin time) and the trip
// size.
type tripStats struct {
	selfUS       []float64
	wordsPerTrip int
	mem          []memStats // per arm
}

// timeTrips round-trips a workspace's cached words through every arm on
// dies drawn at pcell — Recovery nil for the plain path, non-nil for the
// checked one. nextDie returns the die's fault map.
func timeTrips(ws *workload.Workspace, arms []exp.Protection, rows, dies int, recovery *memstore.Recovery, nextDie func() fault.Map) (tripStats, error) {
	rec := newMemRecorder(len(arms))
	traced := tracedArms(arms, rec)
	mems := make([]mem.Word32, len(arms))
	ts := tripStats{}
	for d := 0; d < dies; d++ {
		fm := nextDie()
		for ai, a := range traced {
			var err error
			if mems[ai] == nil {
				mems[ai], err = a.Build(rows, fm)
			} else {
				err = mems[ai].(mem.Resetter).Reset(fm)
			}
			if err != nil {
				return ts, err
			}
			ws.Mem, ws.Recovery = mems[ai], recovery
			if recovery != nil {
				recovery.ResetTrial()
			}
			before := rec.arms[ai].memS() + rec.arms[ai].overheadS
			t0 := time.Now()
			vals := ws.TripValues()
			d := time.Since(t0).Seconds()
			inner := rec.arms[ai].memS() + rec.arms[ai].overheadS - before
			ts.selfUS = append(ts.selfUS, (d-inner)*1e6)
			ts.wordsPerTrip = len(vals)
		}
		rec.endDie()
	}
	ts.mem = rec.arms
	return ts, nil
}

// trialDie draws a die's fault map the way the TrialRunner does: a
// Binomial failure count conditioned on at least one failure, placed
// uniformly.
func trialDie(rng *rand.Rand, rows int, pcell float64) (fault.Map, int) {
	n := 0
	for n == 0 {
		n = stats.SampleBinomial(rng, rows*mem.DataWidth, pcell)
	}
	return fault.GenerateCount(rng, rows, mem.DataWidth, n, fault.Flip), n
}

// stageTrips times trips on a stage's prepared instance.
func stageTrips(tc trialCampaign, st trialStage, dies int) (tripStats, error) {
	id, err := workload.Parse(st.app)
	if err != nil {
		return tripStats{}, err
	}
	inst, err := workload.PrepareShared(id, workload.Params{Seed: tc.seed})
	if err != nil {
		return tripStats{}, err
	}
	ws := &workload.Workspace{Codec: memstore.DefaultCodec()}
	inst.StoreOn(ws)
	var recovery *memstore.Recovery
	if st.policy.Active() {
		retries := st.policy.Retries
		if retries == 0 {
			retries = 2
		}
		recovery = &memstore.Recovery{Retries: retries,
			Restore: st.policy.Kind == workload.PolicySafeRestore, Budget: st.policy.SafeWords}
	}
	rng := stats.Derive(tc.seed, 4242)
	return timeTrips(ws, exp.AllProtections(), tc.rows, dies, recovery, func() fault.Map {
		fm, _ := trialDie(rng, tc.rows, tc.pcell)
		return fm
	})
}
