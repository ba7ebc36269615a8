package faultmem

import (
	"context"
	"net"

	"faultmem/internal/sweep"
)

// This file is the public face of the multi-host sweep service: a
// coordinator that fans the Monte-Carlo shards of any registered
// experiment out to remote workers over a checksummed frame protocol,
// and the worker loop that computes them. The transport is built to
// survive churn — worker death, partitions, corrupt frames, reconnects —
// while keeping campaign results bit-identical to a single-host run;
// cmd/faultmem's `coordinate` and `worker` subcommands are thin shells
// over exactly these calls.

// SweepCoordinator owns a distributed sweep: Run/RunAll mirror
// RunExperiment/RunAllExperiments but execute engine shards on the
// connected worker pool, reassigning shards whose workers die (lease
// expiry), deduplicating late results by job ID, rejecting corrupt
// frames without dropping sessions, and finishing locally if the pool
// drains. Close ends the sweep and dismisses the workers.
type SweepCoordinator = sweep.Coordinator

// SweepConfig tunes the coordinator's fault-tolerance clocks (shard
// lease, session resume window, remote retry budget). The zero value
// selects production defaults.
type SweepConfig = sweep.Config

// SweepWorkerConfig tunes a worker's liveness clocks (heartbeat cadence,
// silent-connection timeout, reconnect backoff bounds). The zero value
// selects production defaults.
type SweepWorkerConfig = sweep.WorkerConfig

// SweepWorkerStats counts a worker's shard computations and refusals;
// point SweepWorkerConfig.Stats at one to observe a running worker.
type SweepWorkerStats = sweep.WorkerStats

// SweepStats are the coordinator's cumulative robustness counters:
// where shards ran, how many leases expired, how many corrupt frames and
// duplicate results were absorbed, and how the worker pool churned.
type SweepStats = sweep.Stats

// ListenSweep starts a sweep coordinator listening for workers on addr
// (a TCP listen address such as ":7715" or "127.0.0.1:0").
func ListenSweep(addr string, cfg SweepConfig) (*SweepCoordinator, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return sweep.NewCoordinator(ln, cfg), nil
}

// RunSweepWorker connects to a coordinator at addr and computes assigned
// shards until the coordinator finishes the sweep (returns nil) or ctx
// dies (returns ctx.Err()). Lost connections are survived by reconnecting
// with jittered backoff and resuming the session; results computed while
// disconnected are re-delivered.
func RunSweepWorker(ctx context.Context, addr string, cfg SweepWorkerConfig) error {
	return sweep.RunWorker(ctx, addr, cfg)
}
