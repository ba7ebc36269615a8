// Package mc is the deterministic parallel Monte-Carlo engine shared by
// the experiment layer: work is split into a fixed number of shards, each
// shard draws from its own RNG stream derived from (seed, shard) via
// stats.Derive, and shard results are returned in shard order. Because
// the shard count and per-shard streams are independent of how many
// worker goroutines execute them, the merged output is bit-identical for
// any worker count — the property the Fig. 5 determinism regression test
// locks in.
package mc

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"faultmem/internal/stats"
)

// DefaultShards is the shard count used when a caller passes 0. It is a
// fixed constant — never derived from the worker count — so that results
// do not depend on the machine's parallelism. 64 shards keep every core
// of typical runners busy while bounding per-shard merge overhead.
const DefaultShards = 64

// Workers normalizes a worker-count parameter: n < 1 selects
// runtime.GOMAXPROCS(0), anything else passes through.
func Workers(n int) int {
	if n < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Env carries the cross-cutting execution controls of one engine run:
// cooperative cancellation, shard-completion progress, and (optionally)
// an external shard executor. The zero value is a background context with
// no progress reporting, making RunEnv behave exactly like Run.
type Env struct {
	// Ctx, when non-nil, cancels the run: workers stop claiming shards as
	// soon as the context is done and RunEnv returns ctx.Err(). Shard
	// functions that run long should additionally poll Done() themselves.
	Ctx context.Context
	// OnShard, when non-nil, is invoked after every completed shard with
	// the number of shards finished so far and the total. Calls are
	// serialized, so the callback needs no locking of its own, but it runs
	// on worker goroutines and must be cheap.
	OnShard func(done, total int)
	// Tag identifies this engine run to an external executor — typically
	// "experiment" or "experiment/stage". Two RunEnv calls of the same
	// campaign must carry distinct tags so shard indices do not collide on
	// the wire. Ignored when Exec is nil.
	Tag string
	// Exec, when non-nil, takes over shard execution: the engine calls it
	// once per shard instead of running the shard function directly, and
	// the claiming goroutine count is lifted to the shard count (Exec is
	// expected to block on I/O or gate its own compute). See ExecFunc for
	// the contract. The multi-host sweep service hangs off this hook on
	// the coordinator side only: it ships each job's (Tag, Shard, Shards)
	// to a worker, which rebuilds the same Stage from the campaign's plan
	// and runs just that shard through Stage.Compute.
	Exec ExecFunc
}

// Context returns the run's context, defaulting to context.Background().
func (e Env) Context() context.Context {
	if e.Ctx == nil {
		return context.Background()
	}
	return e.Ctx
}

// Done returns the context's done channel (nil — never ready — for the
// zero Env), for cheap polling inside hot shard loops.
func (e Env) Done() <-chan struct{} {
	if e.Ctx == nil {
		return nil
	}
	return e.Ctx.Done()
}

// ShardJob is one unit of exported shard work: everything an external
// executor needs to run the shard locally, ship it to a remote host, or
// decode a remotely computed result back into the engine's shard type.
// The (seed, shard) RNG derivation is baked into Run, so a shard computes
// the same bits no matter which host executes it.
type ShardJob struct {
	// Ctx is the engine run's context; executors that block (on a queue,
	// a network round trip, a semaphore) must honor it.
	Ctx context.Context
	// Tag identifies the engine run (Env.Tag), Shard this job's index in
	// [0, Shards). A remote worker must verify that its own plan's stage
	// has the same Shards before trusting Shard to mean the same slice
	// of work.
	Tag           string
	Shard, Shards int
	// Run computes the shard locally and returns its value (the engine's
	// shard type T). A panic in the shard fails the engine run with the
	// panic's value and stack, and Run returns nil, on whichever goroutine
	// the executor calls it.
	Run func() any
	// Encode serializes a value produced by Run for the wire; it fails
	// when the shard type is not serializable, which executors should
	// treat as "this shard must run on this host".
	Encode func(v any) ([]byte, error)
	// Decode reverses Encode into the engine's shard type.
	Decode func(b []byte) (any, error)
}

// ExecFunc executes one exported shard on behalf of the engine. It
// returns the shard's value (obtained from job.Run or job.Decode) or an
// error, which aborts the run.
type ExecFunc func(job ShardJob) (any, error)

// Run executes fn for every shard in [0, shards) on a pool of workers and
// returns the per-shard results indexed by shard. Each shard receives an
// RNG derived deterministically from (seed, shard), so the result slice —
// and anything merged from it in shard order — is identical for every
// worker count, including workers == 1.
//
// fn must not share mutable state across shards; everything it needs
// should live in its closure or be allocated per call.
func Run[T any](workers, shards int, seed int64, fn func(shard int, rng *rand.Rand) T) []T {
	out, err := RunEnv(Env{}, workers, shards, seed, fn)
	if err != nil {
		// The zero Env's background context never cancels, so err is a
		// shard panic: re-raise it on the caller's goroutine.
		panic(err)
	}
	return out
}

// RunEnv is Run under an execution environment: the same deterministic
// sharded schedule — per-shard streams derived from (seed, shard), results
// in shard order, bit-identical for any worker count — plus cooperative
// cancellation and per-shard progress notification. When the environment's
// context is cancelled, workers stop claiming new shards, every in-flight
// shard is allowed to return (so no goroutine leaks), and RunEnv returns
// nil results with ctx.Err(). A panicking shard fails the run the same
// way: workers claim no further shards and RunEnv returns an error
// carrying the panic's value and stack, instead of the panic killing the
// process from a pool goroutine. An uncancelled, panic-free RunEnv
// returns exactly what Run would.
func RunEnv[T any](env Env, workers, shards int, seed int64, fn func(shard int, rng *rand.Rand) T) ([]T, error) {
	if shards < 0 {
		panic(fmt.Sprintf("mc: negative shard count %d", shards))
	}
	ctx := env.Context()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if shards == 0 {
		return nil, nil
	}
	done := env.Done()
	out := make([]T, shards)
	// The count advances under the same lock as the callback, so events
	// arrive in order: 1, 2, ... shards.
	var noteMu sync.Mutex
	completed := 0
	note := func() {
		if env.OnShard != nil {
			noteMu.Lock()
			completed++
			env.OnShard(completed, shards)
			noteMu.Unlock()
		}
	}
	if env.Exec != nil {
		return runExec(env, ctx, shards, seed, fn, out, note)
	}
	w := Workers(workers)
	if w > shards {
		w = shards
	}
	var next atomic.Int64
	var fail failure
	var wg sync.WaitGroup
	wg.Add(w)
	for i := 0; i < w; i++ {
		go func() {
			defer wg.Done()
			s := -1
			defer fail.catch(env.Tag, &s)
			for !fail.failed.Load() {
				select {
				case <-done:
					return
				default:
				}
				s = int(next.Add(1)) - 1
				if s >= shards {
					return
				}
				out[s] = fn(s, stats.Derive(seed, int64(s)))
				note()
			}
		}()
	}
	wg.Wait()
	// A cancellation during the final shards must not surface as a clean
	// result: shard functions may have bailed out early with partial
	// output.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := fail.first(); err != nil {
		return nil, err
	}
	return out, nil
}

// failure is the first error of an engine run. Once it is set, workers
// claim no further shards.
type failure struct {
	failed atomic.Bool
	mu     sync.Mutex
	err    error
}

func (f *failure) set(err error) {
	f.mu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.mu.Unlock()
	f.failed.Store(true)
}

func (f *failure) first() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// catch, deferred by every goroutine that runs shard code, turns a panic
// into the run's error with the panic's value and stack. *shard is the
// shard being computed when the panic struck.
func (f *failure) catch(tag string, shard *int) {
	if p := recover(); p != nil {
		f.set(fmt.Errorf("mc: shard %d of %q panicked: %v\n%s", *shard, tag, p, debug.Stack()))
	}
}

// runExec is the exported-shard execution path of RunEnv: every shard is
// handed to env.Exec as a ShardJob. One goroutine is spawned per shard —
// executors block on I/O (a remote round trip) or gate their own local
// compute, so lifting the claiming parallelism to the shard count keeps a
// remote fleet saturated without changing which values any shard yields.
func runExec[T any](env Env, ctx context.Context, shards int, seed int64,
	fn func(shard int, rng *rand.Rand) T, out []T, note func()) ([]T, error) {
	done := env.Done()
	var next atomic.Int64
	var fail failure
	var wg sync.WaitGroup
	wg.Add(shards)
	for i := 0; i < shards; i++ {
		go func() {
			defer wg.Done()
			s := -1
			defer fail.catch(env.Tag, &s)
			for !fail.failed.Load() {
				select {
				case <-done:
					return
				default:
				}
				s = int(next.Add(1)) - 1
				if s >= shards {
					return
				}
				k := s // Run may outlive this iteration on an executor's goroutine
				job := ShardJob{
					Ctx:    ctx,
					Tag:    env.Tag,
					Shard:  k,
					Shards: shards,
					Run: func() any {
						defer fail.catch(env.Tag, &k)
						return fn(k, stats.Derive(seed, int64(k)))
					},
					Encode: func(v any) ([]byte, error) { return encodeShard(env.Tag, k, v) },
					Decode: func(b []byte) (any, error) { return decodeShard[T](env.Tag, k, b) },
				}
				v, err := env.Exec(job)
				if err != nil {
					fail.set(err)
					return
				}
				t, ok := v.(T)
				if !ok {
					fail.set(fmt.Errorf("mc: executor returned %T for shard %d of %q, want %T", v, k, env.Tag, t))
					return
				}
				out[k] = t
				note()
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := fail.first(); err != nil {
		return nil, err
	}
	return out, nil
}

// encodeShard is the wire codec of shard values: gob, which fails for
// shard types that cannot leave the process (unexported fields, funcs).
func encodeShard(tag string, shard int, v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, fmt.Errorf("mc: encode shard %d of %q: %w", shard, tag, err)
	}
	return buf.Bytes(), nil
}

// decodeShard reverses encodeShard into the engine's shard type.
func decodeShard[T any](tag string, shard int, b []byte) (any, error) {
	var v T
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&v); err != nil {
		return nil, fmt.Errorf("mc: decode shard %d of %q: %w", shard, tag, err)
	}
	return v, nil
}

// Stage is one declared engine run of a campaign: the unit on which the
// local engine, the multi-host coordinator and a remote worker agree.
// Tag names the run on the wire ("experiment/stage") and Shards fixes
// its partition. Run executes every shard — in-process, or through
// env.Exec — and hands the outputs, in shard order, to the stage's
// merge; Compute runs one shard and returns its wire encoding, which is
// all a remote worker ever needs: no other shard or stage is touched.
type Stage struct {
	Tag    string
	Shards int

	run     func(env Env) error
	compute func(ctx context.Context, shard int) ([]byte, error)
}

// NewStage declares a stage of shards fn(ctx, state, k, rng), where rng
// is derived from (seed, k) exactly as in RunEnv, so a shard yields the
// same bits on every host. prepare, when non-nil, builds the state the
// shards share (a workload instance, say); it runs once per Run and once
// per Compute, on whichever host computes the shards, so a worker serving
// many shards should find it memoized. Its error fails the stage before
// any shard runs. merge receives the state and every shard's output in
// shard order after a complete, uncancelled Run. fn must poll ctx.Done()
// if it runs long.
func NewStage[S, T any](tag string, workers, shards int, seed int64, prepare func() (S, error),
	fn func(ctx context.Context, state S, k int, rng *rand.Rand) T, merge func(state S, outs []T) error) Stage {
	if prepare == nil {
		prepare = func() (state S, err error) { return state, nil }
	}
	return Stage{
		Tag:    tag,
		Shards: shards,
		run: func(env Env) error {
			ctx := env.Context()
			if err := ctx.Err(); err != nil {
				return err
			}
			state, err := prepare()
			if err != nil {
				return err
			}
			outs, err := RunEnv(env, workers, shards, seed, func(k int, rng *rand.Rand) T {
				return fn(ctx, state, k, rng)
			})
			if err != nil {
				return err
			}
			return merge(state, outs)
		},
		compute: func(ctx context.Context, k int) ([]byte, error) {
			state, err := prepare()
			if err != nil {
				return nil, err
			}
			v := fn(ctx, state, k, stats.Derive(seed, int64(k)))
			// A cancelled shard may have bailed out with partial output.
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			return encodeShard(tag, k, v)
		},
	}
}

// Run executes the whole stage under env, tagged with the stage's Tag.
func (s Stage) Run(env Env) error {
	env.Tag = s.Tag
	return s.run(env)
}

// Compute runs shard k in [0, Shards) of the stage alone and returns its
// wire encoding — the bytes a ShardJob's Decode turns back into the
// shard's value.
func (s Stage) Compute(ctx context.Context, k int) ([]byte, error) { return s.compute(ctx, k) }

// Span is a contiguous half-open range [Start, End) of global sample
// indices owned by one shard.
type Span struct{ Start, End int }

// Split partitions total samples into shards contiguous spans whose sizes
// differ by at most one. It returns fewer spans than requested when total
// < shards (every span non-empty). shards == 0 selects DefaultShards.
func Split(total, shards int) []Span {
	if total < 0 {
		panic(fmt.Sprintf("mc: negative total %d", total))
	}
	if shards == 0 {
		shards = DefaultShards
	}
	if shards < 0 {
		panic(fmt.Sprintf("mc: negative shard count %d", shards))
	}
	if shards > total {
		shards = total
	}
	spans := make([]Span, shards)
	for s := 0; s < shards; s++ {
		spans[s] = Span{Start: s * total / shards, End: (s + 1) * total / shards}
	}
	return spans
}
