package exp

import (
	"context"
	"errors"
	"math/rand"
	"sort"

	"faultmem/internal/mc"
	"faultmem/internal/memstore"
	"faultmem/internal/stats"
	"faultmem/internal/workload"
)

// qualityConfig fixes one quality-vs-yield engine run: a prepared
// workload instance pushed through a set of protection arms at a fixed
// memory geometry and trial budget, optionally under a detect-and-
// recover policy and a per-read transient fault rate.
type qualityConfig struct {
	name      string // canonical workload name, labels trial errors
	arms      []Protection
	rows      int
	pcell     float64
	trials    int
	workers   int
	seed      int64
	policy    workload.RecoveryPolicy
	transient float64
}

// workloadArms adapts protection arms to the workload layer's Arm
// interface (Protection satisfies it structurally; the indirection
// avoids an import cycle).
func workloadArms(arms []Protection) []workload.Arm {
	out := make([]workload.Arm, len(arms))
	for i, a := range arms {
		out[i] = a
	}
	return out
}

// qualityStage declares the shared Monte-Carlo engine run behind fig7
// and the workloads/recovery campaigns: it splits the trial budget into
// contiguous spans, runs each span's trials on a per-shard
// workload.TrialRunner (one RNG stream per trial derived from
// (seed, trial), so the samples are bit-identical at any worker or
// shard count), and hands done the prepared instance, one
// ascending-sorted quality sample per arm, and the per-arm recovery
// counters merged across shards (nil when the policy is None — merging
// is order-free field sums, so the counters are worker-count
// deterministic too). prepare runs on whichever host computes shards,
// so it must be memoized (workload.PrepareShared).
func qualityStage(tag string, prepare func() (workload.Instance, error), cfg qualityConfig,
	done func(inst workload.Instance, arms []Fig7Arm, recovery []memstore.RecoveryStats) error) mc.Stage {
	narms := len(cfg.arms)
	rcfg := workload.Config{
		Name:          cfg.name,
		Rows:          cfg.rows,
		Pcell:         cfg.pcell,
		Arms:          workloadArms(cfg.arms),
		Policy:        cfg.policy,
		TransientRate: cfg.transient,
	}
	seedBase := stats.DeriveSeed(cfg.seed, 1000)
	spans := mc.Split(cfg.trials, mc.Workers(cfg.workers))

	shard := func(ctx context.Context, inst workload.Instance, k int, _ *rand.Rand) workload.ShardOut {
		span := spans[k]
		out := workload.ShardOut{Qs: make([]float64, 0, (span.End-span.Start)*narms)}
		runner := workload.NewTrialRunner(inst, rcfg)
		cancel := ctx.Done()
		for trial := span.Start; trial < span.End; trial++ {
			select {
			case <-cancel:
				// Abandon the shard; the engine reports ctx.Err() and
				// the partial samples are discarded with it.
				return out
			default:
			}
			qs, err := runner.RunTrial(seedBase, trial, out.Qs)
			out.Qs = qs
			if err != nil {
				out.Err = err.Error()
				return out
			}
		}
		out.Recovery = runner.RecoveryStats()
		return out
	}

	merge := func(inst workload.Instance, outs []workload.ShardOut) error {
		for _, o := range outs {
			if o.Err != "" {
				return errors.New(o.Err)
			}
		}
		var recovery []memstore.RecoveryStats
		if cfg.policy.Active() {
			recovery = make([]memstore.RecoveryStats, narms)
			for _, o := range outs {
				for ai, s := range o.Recovery {
					recovery[ai].Merge(s)
				}
			}
		}
		res := make([]Fig7Arm, 0, narms)
		for ai, arm := range cfg.arms {
			qualities := make([]float64, 0, cfg.trials)
			for _, o := range outs {
				for t := 0; t*narms < len(o.Qs); t++ {
					qualities = append(qualities, o.Qs[t*narms+ai])
				}
			}
			sort.Float64s(qualities)
			res = append(res, Fig7Arm{Scheme: arm, Qualities: qualities})
		}
		return done(inst, res, recovery)
	}

	return mc.NewStage(tag, cfg.workers, len(spans), seedBase, prepare, shard, merge)
}
