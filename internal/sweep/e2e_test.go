package sweep_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"faultmem/internal/exp"
	"faultmem/internal/mc"
	"faultmem/internal/sweep"
	"faultmem/internal/sweep/chaostest"
)

// Churn-clock settings shrunk to test scale: leases expire in hundreds of
// milliseconds, reconnects take tens.
func testConfig(t *testing.T) sweep.Config {
	return sweep.Config{
		Lease:             300 * time.Millisecond,
		SessionTTL:        time.Second,
		MaxRemoteAttempts: 3,
		Logf:              t.Logf,
	}
}

func testWorkerConfig(t *testing.T) sweep.WorkerConfig {
	return sweep.WorkerConfig{
		Heartbeat:    50 * time.Millisecond,
		PongTimeout:  2 * time.Second,
		ReconnectMin: 10 * time.Millisecond,
		ReconnectMax: 50 * time.Millisecond,
		Logf:         t.Logf,
	}
}

func startCoordinator(t *testing.T) *sweep.Coordinator {
	t.Helper()
	return startCoordinatorWith(t, testConfig(t))
}

func startCoordinatorWith(t *testing.T, cfg sweep.Config) *sweep.Coordinator {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := sweep.NewCoordinator(ln, cfg)
	t.Cleanup(func() { c.Close() })
	return c
}

// startWorker runs one worker until killed (or test cleanup). The
// returned kill closes its context and waits for it to exit — a hard
// worker death as far as the coordinator can tell.
func startWorker(t *testing.T, addr string) (kill func()) {
	t.Helper()
	return runWorker(t, addr, testWorkerConfig(t))
}

// startObservedWorker is startWorker with the worker's counters exposed.
func startObservedWorker(t *testing.T, addr string) *sweep.WorkerStats {
	t.Helper()
	cfg := testWorkerConfig(t)
	cfg.Stats = &sweep.WorkerStats{}
	runWorker(t, addr, cfg)
	return cfg.Stats
}

func runWorker(t *testing.T, addr string, cfg sweep.WorkerConfig) (kill func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		sweep.RunWorker(ctx, addr, cfg)
	}()
	var once sync.Once
	kill = func() {
		once.Do(func() {
			cancel()
			<-done
		})
	}
	t.Cleanup(kill)
	return kill
}

// testRunner is the campaign every e2e test runs: a pinned seed so the
// local golden and the distributed run describe the same draw, quick
// budgets so churn dominates runtime.
func testRunner() *exp.Runner {
	seed := int64(7)
	return &exp.Runner{Quick: true, Seed: &seed}
}

// startPool starts a coordinator with n attached workers and waits
// until they have all joined.
func startPool(t *testing.T, n int) *sweep.Coordinator {
	t.Helper()
	c := startCoordinator(t)
	for i := 0; i < n; i++ {
		startWorker(t, c.Addr().String())
	}
	awaitWorkers(t, c, n)
	return c
}

func awaitWorkers(t *testing.T, c *sweep.Coordinator, n int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.AwaitWorkers(ctx, n); err != nil {
		t.Fatal(err)
	}
}

// withParams is the e2e campaign runner carrying a params override.
func withParams(params json.RawMessage) func() *exp.Runner {
	return func() *exp.Runner {
		r := testRunner()
		r.Params = params
		return r
	}
}

// matchLocal runs the campaign through the coordinator and on a single
// host, fails unless the two results are byte-identical, and returns the
// coordinator's stats.
func matchLocal(t *testing.T, c *sweep.Coordinator, name string, runner func() *exp.Runner) sweep.Stats {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	res, err := c.Run(ctx, name, runner())
	if err != nil {
		t.Fatalf("distributed %s: %v", name, err)
	}
	got, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	localRes, err := exp.Run(context.Background(), name, runner())
	if err != nil {
		t.Fatalf("local %s: %v", name, err)
	}
	want, err := localRes.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("distributed %s output diverged from single-host run", name)
	}
	return c.Stats()
}

// requireAllRemote fails unless every shard of a campaign on a healthy
// pool ran remotely: no JobError tag-poisoning, no local degradation.
func requireAllRemote(t *testing.T, st sweep.Stats) {
	t.Helper()
	if st.RemoteShards == 0 || st.JobErrors != 0 || st.LocalShards != 0 {
		t.Fatalf("stages must distribute fully on a healthy pool, not degrade to local: %+v", st)
	}
}

// TestDistributedRunIsBitIdenticalToLocal: the baseline contract — three
// healthy workers, shards computed remotely, output equal to the
// single-host run byte for byte.
func TestDistributedRunIsBitIdenticalToLocal(t *testing.T) {
	st := matchLocal(t, startPool(t, 3), "fig5", testRunner)
	if st.RemoteShards == 0 {
		t.Fatalf("no shards were computed remotely: %+v", st)
	}
	if st.LocalShards != 0 {
		t.Logf("note: %d shards fell back to local", st.LocalShards)
	}
}

// TestWorkerKilledMidCampaign: a worker dying with shards leased must
// not lose, duplicate, or reorder anything — the leases expire, the
// shards reassign, and the output stays bit-identical.
func TestWorkerKilledMidCampaign(t *testing.T) {
	c := startCoordinator(t)
	kill := startWorker(t, c.Addr().String())
	startWorker(t, c.Addr().String())
	startWorker(t, c.Addr().String())
	awaitWorkers(t, c, 3)

	// Kill one worker shortly after the campaign starts, while it almost
	// certainly holds leases.
	timer := time.AfterFunc(30*time.Millisecond, kill)
	defer timer.Stop()

	matchLocal(t, c, "fig5", testRunner)
	if st := c.Stats(); st.RemoteShards == 0 {
		t.Fatalf("no shards were computed remotely: %+v", st)
	}
}

// TestAllWorkersKilledFallsBackToLocal: when the whole pool dies
// mid-campaign the coordinator must finish the sweep itself, still
// bit-identically.
func TestAllWorkersKilledFallsBackToLocal(t *testing.T) {
	c := startCoordinator(t)
	kills := []func(){
		startWorker(t, c.Addr().String()),
		startWorker(t, c.Addr().String()),
	}
	awaitWorkers(t, c, 2)

	timer := time.AfterFunc(20*time.Millisecond, func() {
		for _, kill := range kills {
			kill()
		}
	})
	defer timer.Stop()

	matchLocal(t, c, "fig5", testRunner)
	if st := c.Stats(); st.LocalShards == 0 {
		// The pool died 20ms in; at least the tail must have run locally.
		t.Fatalf("expected local fallback shards after pool drain: %+v", st)
	}
}

// TestNoWorkersRunsLocally: a coordinator with an empty pool degrades to
// a plain local run.
func TestNoWorkersRunsLocally(t *testing.T) {
	c := startCoordinator(t)
	if st := matchLocal(t, c, "fig5", testRunner); st.RemoteShards != 0 || st.LocalShards == 0 {
		t.Fatalf("expected pure local execution: %+v", st)
	}
}

// TestChaosDropDupCorrupt: workers behind a seeded chaos proxy that
// drops, duplicates, delays, and corrupts frames. Whatever the weather
// does, the output must stay bit-identical — corrupt frames rejected,
// duplicates deduplicated, drops absorbed by lease reassignment.
func TestChaosDropDupCorrupt(t *testing.T) {
	c := startCoordinator(t)
	chaos := &chaostest.RandomChaos{
		Seed:     42,
		PDrop:    0.05,
		PDup:     0.10,
		PCorrupt: 0.10,
		PDelay:   0.20,
		MaxDelay: 5 * time.Millisecond,
	}
	proxy, err := chaostest.New(c.Addr().String(), chaos.Policy())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(proxy.Close)
	startWorker(t, proxy.Addr())
	startWorker(t, proxy.Addr())
	awaitWorkers(t, c, 2)

	matchLocal(t, c, "fig5", testRunner)
	t.Logf("chaos stats: %+v", c.Stats())
}

// TestHardDisconnectResume: the proxy kills the worker's connection by
// desynchronizing the stream every few frames. The worker must reconnect,
// resume its session by token, re-deliver results computed while
// disconnected, and the campaign must still match the golden run.
func TestHardDisconnectResume(t *testing.T) {
	c := startCoordinator(t)
	policy := func(dir chaostest.Dir, n int, frame []byte) chaostest.Verdict {
		// Corrupt the stream toward the worker after a handful of frames
		// on every connection: a rolling sequence of hard disconnects.
		if dir == chaostest.ToClient && n == 6 {
			return chaostest.Verdict{Action: chaostest.CorruptHeader}
		}
		return chaostest.Verdict{}
	}
	proxy, err := chaostest.New(c.Addr().String(), policy)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(proxy.Close)
	startWorker(t, proxy.Addr())
	startWorker(t, proxy.Addr())
	awaitWorkers(t, c, 2)

	matchLocal(t, c, "fig5", testRunner)
	st := c.Stats()
	if st.SessionsResumed == 0 {
		t.Fatalf("expected session resumes under rolling disconnects: %+v", st)
	}
	t.Logf("resume stats: %+v", st)
}

// TestTruncatedMidFrameConnection: a connection cut mid-frame (a crash
// during a write) must not corrupt the campaign.
func TestTruncatedMidFrameConnection(t *testing.T) {
	c := startCoordinator(t)
	policy := func(dir chaostest.Dir, n int, frame []byte) chaostest.Verdict {
		if dir == chaostest.ToServer && n == 4 {
			return chaostest.Verdict{Action: chaostest.Truncate}
		}
		return chaostest.Verdict{}
	}
	proxy, err := chaostest.New(c.Addr().String(), policy)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(proxy.Close)
	startWorker(t, proxy.Addr())
	// A second worker on a clean link keeps the campaign from depending
	// entirely on the flaky one.
	startWorker(t, c.Addr().String())
	awaitWorkers(t, c, 2)

	matchLocal(t, c, "fig5", testRunner)
}

// TestDistributedMultiStageExperiment: fig7 runs one engine stage per
// benchmark app with machine-dependent plans. Its shard output carries
// exported fields, so every stage's shards must gob-encode and travel —
// a healthy pool may not degrade a single shard to local compute (that
// used to be fig7's fate back when its shard type was unexported and
// every stage tag got JobError-poisoned). The params override exercises
// the params-on-the-wire plumbing and trims the budget: two apps at a
// handful of trials instead of three at the full quick tier.
func TestDistributedMultiStageExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-stage distributed run is the slowest e2e case")
	}
	c := startPool(t, 3)
	requireAllRemote(t, matchLocal(t, c, "fig7", withParams(fig7E2EParams)))
}

// fig7E2EParams trims fig7 to two apps at a handful of trials.
var fig7E2EParams = json.RawMessage(`[{"App": 0, "Trials": 8, "Rows": 256}, {"App": 2, "Trials": 8, "Rows": 256}]`)

// TestDistributedWorkloadsCampaign extends the zero-local-fallback
// contract to the workloads campaign from day one: its shard output is
// the gob-encodable workload.ShardOut, so every per-workload stage must
// travel to a healthy pool with no JobError tag-poisoning and no local
// degradation, and the merged result must match the single-host run
// byte for byte.
func TestDistributedWorkloadsCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed workloads run is a slower e2e case")
	}
	params := json.RawMessage(`{"Workloads": ["rsort", "cgsolve"], "Trials": 8, "Rows": 256, "Keys": 1024, "Dim": 24}`)
	c := startPool(t, 3)
	requireAllRemote(t, matchLocal(t, c, "workloads", withParams(params)))
}

// recoveryE2EParams is the small-budget recovery campaign the e2e cases
// run: all three policies with soft errors enabled, so the shard
// outputs carry non-empty per-arm recovery counters over the wire.
var recoveryE2EParams = json.RawMessage(
	`{"Workload": "cgsolve", "Trials": 6, "Rows": 256, "Dim": 24, "TransientRate": 0.001, "SafeWords": 64}`)

// TestDistributedRecoveryCampaign extends the zero-local-fallback
// contract to the recovery campaign: its shard output is the same
// gob-encodable workload.ShardOut, now carrying per-arm recovery
// counters, so every per-policy stage must travel to a healthy pool
// with no JobError tag-poisoning and no local degradation, and the
// merged result — counter tables included — must match the single-host
// run byte for byte.
func TestDistributedRecoveryCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed recovery run is a slower e2e case")
	}
	c := startPool(t, 3)
	requireAllRemote(t, matchLocal(t, c, "recovery", withParams(recoveryE2EParams)))
}

// TestRecoveryWorkerKilledMidCampaign: a worker dying while it holds
// recovery-campaign leases must not lose, duplicate, or reorder
// anything — including the per-arm recovery counters merged from shard
// outputs, which would silently drift if a shard were double-counted.
func TestRecoveryWorkerKilledMidCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed recovery run is a slower e2e case")
	}
	c := startCoordinator(t)
	kill := startWorker(t, c.Addr().String())
	startWorker(t, c.Addr().String())
	startWorker(t, c.Addr().String())
	awaitWorkers(t, c, 3)

	timer := time.AfterFunc(30*time.Millisecond, kill)
	defer timer.Stop()
	if st := matchLocal(t, c, "recovery", withParams(recoveryE2EParams)); st.RemoteShards == 0 {
		t.Fatalf("no recovery shards were computed remotely: %+v", st)
	}
}

// TestWorkerComputesOnlyDispatchedShards: a worker serving a six-stage
// workloads campaign runs the shard function exactly once per shard it
// is sent — one per shard of the campaign's plan — and computes no
// shard of any other stage along the way (a worker that replayed the
// campaign would recompute every earlier stage for each job).
func TestWorkerComputesOnlyDispatchedShards(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed workloads run is a slower e2e case")
	}
	cfg := testConfig(t)
	cfg.Lease = 10 * time.Second // no reassignment may add a second computation
	c := startCoordinatorWith(t, cfg)
	stats := startObservedWorker(t, c.Addr().String())
	awaitWorkers(t, c, 1)

	var mu sync.Mutex
	totals := map[string]int{} // stage -> shard count, from engine progress
	runner := func() *exp.Runner {
		r := testRunner()
		r.Progress = func(p exp.Progress) {
			if p.Stage != "workloads" { // skip the per-stage coarse unit
				mu.Lock()
				totals[p.Stage] = p.Total
				mu.Unlock()
			}
		}
		return r
	}
	st := matchLocal(t, c, "workloads", runner)
	requireAllRemote(t, st)
	planned := 0
	for _, n := range totals {
		planned += n
	}
	if len(totals) != 6 {
		t.Fatalf("campaign ran %d stages, want 6: %v", len(totals), totals)
	}
	computed, refused := stats.Computed.Load(), stats.Refused.Load()
	if computed != uint64(planned) || st.RemoteShards != uint64(planned) || refused != 0 {
		t.Fatalf("worker computed %d shards (refused %d) for %d dispatched of %d planned; want one computation per planned shard",
			computed, refused, st.RemoteShards, planned)
	}
}

// rewriteJobs starts a proxy in front of the coordinator at upstream
// that relays every frame untouched except Job frames, which it
// rewrites with edit — a coordinator whose plan disagrees with the
// worker's.
func rewriteJobs(t *testing.T, upstream string, edit func(*sweep.Job)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			down, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", upstream)
			if err != nil {
				down.Close()
				continue
			}
			go func() {
				io.Copy(up, down)
				up.Close()
			}()
			go func() {
				defer down.Close()
				for {
					raw, err := sweep.ReadRawFrame(up)
					if err != nil {
						return
					}
					if typ, payload, _, err := sweep.ParseFrame(raw); err == nil && typ == sweep.MsgJob {
						if m, err := sweep.DecodeMessage(typ, payload); err == nil {
							edit(m.(*sweep.Job))
							raw = sweep.EncodeMessage(m)
						}
					}
					if _, err := down.Write(raw); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestWorkerRefusesPlanMismatch: a real worker sent a job whose shard
// count disagrees with its own plan, or whose tag names no stage of it,
// answers with a JobError instead of computing a shard of the wrong
// partition. The coordinator poisons that stage to local compute, the
// other stage still distributes, and the campaign matches the local
// result byte for byte.
func TestWorkerRefusesPlanMismatch(t *testing.T) {
	edits := map[string]func(*sweep.Job){
		"shard count":   func(j *sweep.Job) { j.Shards++ },
		"unknown stage": func(j *sweep.Job) { j.Tag += "-nope" },
	}
	for name, edit := range edits {
		t.Run(name, func(t *testing.T) {
			c := startCoordinator(t)
			addr := rewriteJobs(t, c.Addr().String(), func(j *sweep.Job) {
				if j.Tag == "fig7/knn" {
					edit(j)
				}
			})
			stats := startObservedWorker(t, addr)
			awaitWorkers(t, c, 1)
			st := matchLocal(t, c, "fig7", withParams(fig7E2EParams))
			if st.JobErrors == 0 || st.LocalShards == 0 || st.RemoteShards == 0 {
				t.Fatalf("want the knn stage refused and run locally, elasticnet remote: %+v", st)
			}
			if stats.Refused.Load() == 0 || stats.Computed.Load() != st.RemoteShards {
				t.Fatalf("worker computed %d, refused %d: want refusals, and computations only for the %d shards it returned",
					stats.Computed.Load(), stats.Refused.Load(), st.RemoteShards)
			}
		})
	}
}

// panicStage is a registered one-stage experiment whose first shard
// computation in the process panics: it stands in for a hostile param
// no check catches, reaching a worker.
type panicStage struct{}

var panicsLeft atomic.Int32

func (panicStage) Name() string       { return "panic-stage" }
func (panicStage) DefaultParams() any { return &struct{}{} }
func (e panicStage) Run(ctx context.Context, r *exp.Runner) (*exp.Result, error) {
	return exp.RunPlan(ctx, e, r)
}

func (e panicStage) Plan(*exp.Runner) (*exp.Plan, error) {
	var res *exp.Result
	st := mc.NewStage(e.Name(), 1, 4, 1, nil,
		func(_ context.Context, _ struct{}, k int, _ *rand.Rand) int {
			if panicsLeft.Add(-1) >= 0 {
				panic("synthetic shard panic")
			}
			return k
		},
		func(_ struct{}, out []int) error {
			res = &exp.Result{Experiment: e.Name(), Params: out}
			return nil
		})
	return &exp.Plan{Stages: []mc.Stage{st}, Result: func() (*exp.Result, error) { return res, nil }}, nil
}

func init() { exp.Register(panicStage{}) }

// TestWorkerSurvivesShardPanic: a shard that panics on the worker fails
// only that job — answered with a JobError carrying the panic — and the
// worker process lives on; the coordinator computes the stage locally.
func TestWorkerSurvivesShardPanic(t *testing.T) {
	var mu sync.Mutex
	var logs []string
	cfg := testConfig(t)
	cfg.Logf = func(format string, args ...any) {
		mu.Lock()
		logs = append(logs, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	c := startCoordinatorWith(t, cfg)
	stats := startObservedWorker(t, c.Addr().String())
	awaitWorkers(t, c, 1)

	panicsLeft.Store(1)
	matchLocal(t, c, "panic-stage", testRunner)
	if stats.Refused.Load() == 0 {
		t.Fatal("worker did not refuse the panicking shard")
	}
	mu.Lock()
	defer mu.Unlock()
	for _, l := range logs {
		if strings.Contains(l, "panicked: synthetic shard panic") {
			return
		}
	}
	t.Fatalf("no JobError carried the panic; coordinator log:\n%s", strings.Join(logs, "\n"))
}

// TestJobErrorPoisonsTagToLocal: a real worker sent jobs its plan
// does not declare fails every one of them, which drives the JobError →
// poisoned tag → local-compute degradation end to end. The campaign
// must still finish bit-identically, with zero remote shards merged.
func TestJobErrorPoisonsTagToLocal(t *testing.T) {
	c := startCoordinator(t)
	startWorker(t, rewriteJobs(t, c.Addr().String(), func(j *sweep.Job) { j.Tag += "-nope" }))
	awaitWorkers(t, c, 1)

	st := matchLocal(t, c, "fig5", testRunner)
	if st.JobErrors == 0 || st.LocalShards == 0 {
		t.Fatalf("expected JobError-driven local degradation: %+v", st)
	}
	if st.RemoteShards != 0 {
		t.Fatalf("a worker that failed every job cannot have produced results: %+v", st)
	}
}

// TestWorkerLegacyHelloFallback: a coordinator that predates frame
// flags reads a flagged Hello as an unknown frame type and hangs up
// without a Welcome. The worker must downgrade to a plain Hello on its
// next attempt and complete the session.
func TestWorkerLegacyHelloFallback(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	srvErr := make(chan error, 1)
	go func() {
		srvErr <- func() error {
			// First connection: the flagged Hello an old coordinator
			// cannot parse — it drops the connection.
			conn, err := ln.Accept()
			if err != nil {
				return err
			}
			raw, err := sweep.ReadRawFrame(conn)
			if err != nil {
				return fmt.Errorf("first hello: %v", err)
			}
			if raw[3] != byte(sweep.MsgHello)|sweep.FlagGzipOK {
				return fmt.Errorf("first hello type byte = %#02x, want flagged hello %#02x",
					raw[3], byte(sweep.MsgHello)|sweep.FlagGzipOK)
			}
			conn.Close()
			// Second connection: the worker must have downgraded.
			conn, err = ln.Accept()
			if err != nil {
				return err
			}
			defer conn.Close()
			raw, err = sweep.ReadRawFrame(conn)
			if err != nil {
				return fmt.Errorf("second hello: %v", err)
			}
			if raw[3] != byte(sweep.MsgHello) {
				return fmt.Errorf("second hello type byte = %#02x, want plain hello %#02x",
					raw[3], byte(sweep.MsgHello))
			}
			if _, err := conn.Write(sweep.EncodeMessage(&sweep.Welcome{Token: "legacy"})); err != nil {
				return err
			}
			_, err = conn.Write(sweep.EncodeMessage(&sweep.Done{}))
			return err
		}()
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := sweep.RunWorker(ctx, ln.Addr().String(), testWorkerConfig(t)); err != nil {
		t.Fatalf("worker did not finish cleanly against a pre-flags coordinator: %v", err)
	}
	if err := <-srvErr; err != nil {
		t.Fatal(err)
	}
}

// TestCancelledCampaignReleasesPromptly: killing the campaign context
// must unwind the distributed run quickly, not hang on in-flight leases.
func TestCancelledCampaignReleasesPromptly(t *testing.T) {
	c := startCoordinator(t)
	startWorker(t, c.Addr().String())
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := c.Run(ctx, "fig5", testRunner())
	if err == nil {
		// The run can legitimately win the race and finish; only a hang
		// is a failure.
		return
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancelled campaign took %v to unwind", elapsed)
	}
}
