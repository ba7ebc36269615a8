package mc

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
)

// execShard is a representative shard value: a struct with exported
// fields, so the job's gob Encode/Decode thunks can round-trip it.
type execShard struct {
	Shard int
	Sum   float64
}

func execFn(shard int, rng *rand.Rand) execShard {
	s := execShard{Shard: shard}
	for i := 0; i < 100; i++ {
		s.Sum += rng.Float64()
	}
	return s
}

// TestExecLocalPassthroughIsBitIdentical: an executor that runs every
// shard through Run (the coordinator's local-fallback path) must yield
// exactly what the plain engine yields.
func TestExecLocalPassthroughIsBitIdentical(t *testing.T) {
	want := Run(4, 16, 42, execFn)
	env := Env{Tag: "t", Exec: func(job ShardJob) (any, error) { return job.Run(), nil }}
	got, err := RunEnv(env, 4, 16, 42, execFn)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("executor passthrough diverged from plain Run")
	}
}

// TestExecEncodeDecodeRoundTrip: routing every shard through the wire
// codec (Encode then Decode, the remote path without a network) must be
// bit-identical to the plain engine.
func TestExecEncodeDecodeRoundTrip(t *testing.T) {
	want := Run(4, 16, 42, execFn)
	env := Env{Tag: "t", Exec: func(job ShardJob) (any, error) {
		b, err := job.Encode(job.Run())
		if err != nil {
			return nil, err
		}
		return job.Decode(b)
	}}
	got, err := RunEnv(env, 4, 16, 42, execFn)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("wire round trip diverged from plain Run")
	}
}

// TestExecJobMetadata: every job must carry the run's tag, a unique shard
// index, and the total shard count.
func TestExecJobMetadata(t *testing.T) {
	seen := make([]int32, 8)
	env := Env{Tag: "fig5", Exec: func(job ShardJob) (any, error) {
		if job.Tag != "fig5" || job.Shards != 8 || job.Shard < 0 || job.Shard >= 8 {
			t.Errorf("bad job metadata: %+v", job)
		}
		atomic.AddInt32(&seen[job.Shard], 1)
		return job.Run(), nil
	}}
	if _, err := RunEnv(env, 2, 8, 1, execFn); err != nil {
		t.Fatal(err)
	}
	for s, n := range seen {
		if n != 1 {
			t.Fatalf("shard %d executed %d times, want 1", s, n)
		}
	}
}

// TestExecErrorAbortsRun: an executor error must fail the run and stop
// further claims.
func TestExecErrorAbortsRun(t *testing.T) {
	boom := errors.New("boom")
	var calls atomic.Int32
	env := Env{Exec: func(job ShardJob) (any, error) {
		calls.Add(1)
		return nil, boom
	}}
	if _, err := RunEnv(env, 1, 64, 1, execFn); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// 64 goroutines race one claim each at worst; the abort must prevent
	// a second round of claims per goroutine.
	if calls.Load() > 64 {
		t.Fatalf("%d executor calls after abort, want <= 64", calls.Load())
	}
}

// TestExecWrongTypeFails: an executor returning the wrong dynamic type is
// a run failure, not a panic.
func TestExecWrongTypeFails(t *testing.T) {
	env := Env{Exec: func(job ShardJob) (any, error) { return "nope", nil }}
	if _, err := RunEnv(env, 1, 4, 1, execFn); err == nil {
		t.Fatal("wrong-typed executor result was accepted")
	}
}

// TestExecHonorsCancellation: a blocked executor must not wedge the run
// when the context dies.
func TestExecHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	env := Env{Ctx: ctx, Exec: func(job ShardJob) (any, error) {
		<-job.Ctx.Done()
		return nil, job.Ctx.Err()
	}}
	go cancel()
	if _, err := RunEnv(env, 1, 8, 1, execFn); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestExecProgressCountsComputedShards: OnShard fires for executor-backed
// shards exactly as for local ones.
func TestExecProgressCountsComputedShards(t *testing.T) {
	var last atomic.Int32
	env := Env{
		OnShard: func(done, total int) { last.Store(int32(done)) },
		Exec:    func(job ShardJob) (any, error) { return job.Run(), nil },
	}
	if _, err := RunEnv(env, 2, 16, 1, execFn); err != nil {
		t.Fatal(err)
	}
	if last.Load() != 16 {
		t.Fatalf("last progress = %d, want 16", last.Load())
	}
}

// countingStage declares execFn as a stage that counts its prepares and
// shard runs and captures what it merges.
func countingStage(merged *[]execShard, prepared, runs *atomic.Int32) Stage {
	return NewStage("exp/stage", 4, 16, 42,
		func() (int, error) { prepared.Add(1); return 0, nil },
		func(_ context.Context, _ int, k int, rng *rand.Rand) execShard { runs.Add(1); return execFn(k, rng) },
		func(_ int, outs []execShard) error { *merged = outs; return nil })
}

// TestStageRunMatchesRunEnv: a declared stage run locally merges exactly
// what the plain engine yields, and prepares once.
func TestStageRunMatchesRunEnv(t *testing.T) {
	var got []execShard
	var prepared, runs atomic.Int32
	if err := countingStage(&got, &prepared, &runs).Run(Env{}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, Run(4, 16, 42, execFn)) {
		t.Fatal("stage run diverged from plain Run")
	}
	if prepared.Load() != 1 || runs.Load() != 16 {
		t.Fatalf("prepared %d times and ran %d shards, want 1 and 16", prepared.Load(), runs.Load())
	}
}

// TestStageComputeIsOneShard: Compute(k) is the wire encoding of exactly
// shard k — the bytes the coordinator decodes into the merged slice —
// and runs no other shard.
func TestStageComputeIsOneShard(t *testing.T) {
	want := Run(4, 16, 42, execFn)
	var merged []execShard
	var prepared, runs atomic.Int32
	st := countingStage(&merged, &prepared, &runs)
	for _, k := range []int{0, 7, 15} {
		b, err := st.Compute(context.Background(), k)
		if err != nil {
			t.Fatal(err)
		}
		if v, err := decodeShard[execShard](st.Tag, k, b); err != nil || !reflect.DeepEqual(v, want[k]) {
			t.Fatalf("shard %d: got %+v (%v), want %+v", k, v, err, want[k])
		}
	}
	if runs.Load() != 3 || prepared.Load() != 3 || merged != nil {
		t.Fatalf("3 computes ran %d shards, %d prepares, merged %v; want 3, 3, nothing", runs.Load(), prepared.Load(), merged)
	}
}

// TestStagePrepareErrorFailsRun: a failed prepare fails the stage before
// any shard runs, on both paths.
func TestStagePrepareErrorFailsRun(t *testing.T) {
	boom := errors.New("boom")
	var runs atomic.Int32
	st := NewStage("s", 1, 4, 1, func() (int, error) { return 0, boom },
		func(_ context.Context, _ int, k int, rng *rand.Rand) int { runs.Add(1); return k },
		func(int, []int) error { return nil })
	if err := st.Run(Env{}); !errors.Is(err, boom) {
		t.Fatalf("Run err = %v, want boom", err)
	}
	if _, err := st.Compute(context.Background(), 0); !errors.Is(err, boom) {
		t.Fatalf("Compute err = %v, want boom", err)
	}
	if runs.Load() != 0 {
		t.Fatalf("%d shards ran after a failed prepare", runs.Load())
	}
}
