package serve_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"faultmem/internal/exp"
	"faultmem/internal/mc"
	"faultmem/internal/serve"
	"faultmem/internal/sweep"
)

// sleepExp is a synthetic registry experiment with a controllable shard
// count and per-shard duration, so scheduling tests don't depend on the
// real campaigns' budgets. Shards ride the engine's executor hook, so
// they gate through the server's fair-share scheduler exactly like real
// campaigns.
type sleepExp struct {
	name   string
	shards int
	delay  time.Duration
}

func (e sleepExp) Name() string        { return e.name }
func (e sleepExp) DefaultParams() any  { return &struct{}{} }
func (e sleepExp) Description() string { return "synthetic test campaign" }

func (e sleepExp) Run(ctx context.Context, r *exp.Runner) (*exp.Result, error) {
	return exp.RunPlan(ctx, e, r)
}

// Plan declares the campaign's one engine stage, so sweep workers can
// compute its shards.
func (e sleepExp) Plan(*exp.Runner) (*exp.Plan, error) {
	var res *exp.Result
	st := mc.NewStage(e.name, 0, e.shards, 1, nil,
		func(ctx context.Context, _ struct{}, shard int, _ *rand.Rand) int {
			select {
			case <-time.After(e.delay):
			case <-ctx.Done():
			}
			return shard
		},
		func(_ struct{}, out []int) error {
			t := &exp.Table{Title: e.name, Header: []string{"shards"}}
			t.AddRow(fmt.Sprint(len(out)))
			res = &exp.Result{Experiment: e.name, Tables: []*exp.Table{t}}
			return nil
		})
	return &exp.Plan{Stages: []mc.Stage{st}, Result: func() (*exp.Result, error) { return res, nil }}, nil
}

// panicExp is a registry experiment that panics on the job goroutine —
// the stand-in for a hostile param no check catches.
type panicExp struct{}

func (panicExp) Name() string       { return "panicky" }
func (panicExp) DefaultParams() any { return &struct{}{} }
func (panicExp) Run(context.Context, *exp.Runner) (*exp.Result, error) {
	panic("synthetic campaign panic")
}

func init() {
	exp.Register(sleepExp{name: "sleepy-long", shards: 40, delay: 25 * time.Millisecond})
	exp.Register(sleepExp{name: "sleepy-short", shards: 4, delay: 25 * time.Millisecond})
	exp.Register(panicExp{})
}

func testConfig(t *testing.T) serve.Config {
	return serve.Config{
		Sweep: sweep.Config{
			Lease:      500 * time.Millisecond,
			SessionTTL: time.Second,
		},
		SnapshotEvery: 10 * time.Millisecond,
		ClientTTL:     time.Second,
		Logf:          t.Logf,
	}
}

func startServer(t *testing.T, cfg serve.Config) *serve.Server {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(ln, cfg)
	t.Cleanup(func() { srv.Close() })
	return srv
}

func dial(t *testing.T, srv *serve.Server, opts serve.Options) *serve.Client {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if opts.Logf == nil {
		opts.Logf = t.Logf
	}
	c, err := serve.Dial(ctx, srv.Addr().String(), opts)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func goldenJSON(t *testing.T, name string) []byte {
	t.Helper()
	seed := int64(7)
	res, err := exp.Run(context.Background(), name, &exp.Runner{Quick: true, Seed: &seed})
	if err != nil {
		t.Fatalf("local %s: %v", name, err)
	}
	j, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func submitAndWait(t *testing.T, c *serve.Client, spec serve.Campaign) *serve.FinalResult {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	id, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("submit %s: %v", spec.Experiment, err)
	}
	f, err := c.Wait(ctx, id)
	if err != nil {
		t.Fatalf("wait %s: %v", spec.Experiment, err)
	}
	return f
}

// TestServeByteIdenticalToLocal: the core contract — a campaign
// submitted through the server returns exactly the bytes a direct local
// run produces.
func TestServeByteIdenticalToLocal(t *testing.T) {
	srv := startServer(t, testConfig(t))
	c := dial(t, srv, serve.Options{})
	seed := int64(7)
	f := submitAndWait(t, c, serve.Campaign{Experiment: "fig2", Quick: true, Seed: &seed})
	if f.Err != "" {
		t.Fatalf("job failed: %s", f.Err)
	}
	if want := goldenJSON(t, "fig2"); !bytes.Equal(f.Result, want) {
		t.Fatalf("served result differs from local run:\nserved: %s\nlocal:  %s", f.Result, want)
	}
}

// TestServeConcurrentCampaignsWithWorker: two campaigns in flight at
// once over one pool with a sweep worker attached — both results stay
// byte-identical, and the worker demonstrably computed shards.
func TestServeConcurrentCampaignsWithWorker(t *testing.T) {
	cfg := testConfig(t)
	srv := startServer(t, cfg)

	wctx, wcancel := context.WithCancel(context.Background())
	wdone := make(chan struct{})
	go func() {
		defer close(wdone)
		sweep.RunWorker(wctx, srv.Addr().String(), sweep.WorkerConfig{
			Heartbeat:    50 * time.Millisecond,
			ReconnectMin: 10 * time.Millisecond,
			ReconnectMax: 50 * time.Millisecond,
			Logf:         t.Logf,
		})
	}()
	t.Cleanup(func() { wcancel(); <-wdone })
	waitWorkers(t, srv, 1)

	c := dial(t, srv, serve.Options{})
	var wg sync.WaitGroup
	finals := make([]*serve.FinalResult, 2)
	for i, name := range []string{"fig2", "fig5"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			seed := int64(7)
			finals[i] = submitAndWait(t, c, serve.Campaign{Experiment: name, Quick: true, Seed: &seed})
		}()
	}
	wg.Wait()
	for i, name := range []string{"fig2", "fig5"} {
		if finals[i].Err != "" {
			t.Fatalf("%s failed: %s", name, finals[i].Err)
		}
		if want := goldenJSON(t, name); !bytes.Equal(finals[i].Result, want) {
			t.Errorf("%s served result differs from local run", name)
		}
	}
	if st := srv.PoolStats(); st.RemoteShards == 0 {
		t.Errorf("worker was connected but computed no shards: %+v", st)
	}
}

func waitWorkers(t *testing.T, srv *serve.Server, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for srv.Workers() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d workers joined", srv.Workers(), n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServeFairShare: a small campaign submitted after a much larger
// one finishes first, because tickets interleave at shard granularity
// instead of queueing whole campaigns. With a single local ticket a
// FIFO pool would run all 40 long shards before the short job's 4.
func TestServeFairShare(t *testing.T) {
	cfg := testConfig(t)
	cfg.LocalWorkers = 1
	srv := startServer(t, cfg)
	c := dial(t, srv, serve.Options{})

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	longID, err := c.Submit(ctx, serve.Campaign{Experiment: "sleepy-long"})
	if err != nil {
		t.Fatal(err)
	}
	shortID, err := c.Submit(ctx, serve.Campaign{Experiment: "sleepy-short"})
	if err != nil {
		t.Fatal(err)
	}

	type arrival struct {
		id uint64
		f  *serve.FinalResult
	}
	order := make(chan arrival, 2)
	for _, id := range []uint64{longID, shortID} {
		go func() {
			f, err := c.Wait(ctx, id)
			if err != nil {
				t.Errorf("wait job %d: %v", id, err)
				order <- arrival{id: id}
				return
			}
			order <- arrival{id: id, f: f}
		}()
	}
	first := <-order
	second := <-order
	if first.f == nil || second.f == nil {
		t.Fatal("a job never finished")
	}
	if first.id != shortID {
		t.Fatalf("short campaign (job %d) should finish before the long one (job %d); got job %d first",
			shortID, longID, first.id)
	}
}

// TestServeCancelAndList: cancelling a running job surfaces as a
// cancelled state and an error final; list sees both jobs.
func TestServeCancelAndList(t *testing.T) {
	cfg := testConfig(t)
	cfg.LocalWorkers = 1
	srv := startServer(t, cfg)
	c := dial(t, srv, serve.Options{})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	longID, err := c.Submit(ctx, serve.Campaign{Experiment: "sleepy-long", Label: "doomed"})
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Cancel(ctx, longID)
	if err != nil {
		t.Fatalf("cancel: %v", err)
	}
	if st.ID != longID {
		t.Fatalf("cancel status names job %d, want %d", st.ID, longID)
	}
	f, err := c.Wait(ctx, longID)
	if err != nil {
		t.Fatal(err)
	}
	if f.Err == "" {
		t.Fatal("cancelled job delivered a clean final")
	}
	st, err = c.Status(ctx, longID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != serve.StateCancelled {
		t.Fatalf("state = %q, want %q", st.State, serve.StateCancelled)
	}
	if st.Label != "doomed" {
		t.Fatalf("label = %q, want %q", st.Label, "doomed")
	}

	shortF := submitAndWait(t, c, serve.Campaign{Experiment: "sleepy-short"})
	if shortF.Err != "" {
		t.Fatalf("short job failed: %s", shortF.Err)
	}
	list, err := c.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 {
		t.Fatalf("list returned %d jobs, want 2", len(list))
	}
	if list[0].ID != longID || list[0].State != serve.StateCancelled {
		t.Fatalf("list[0] = %+v, want cancelled job %d", list[0], longID)
	}
	if list[1].State != serve.StateDone {
		t.Fatalf("list[1].State = %q, want %q", list[1].State, serve.StateDone)
	}

	// Unknown jobs answer with an error, not a hang.
	if _, err := c.Status(ctx, 999); err == nil || !strings.Contains(err.Error(), "unknown job") {
		t.Fatalf("status of unknown job: %v", err)
	}
}

// TestServeSnapshots: a running job pushes periodic partial-state
// snapshots with increasing sequence numbers.
func TestServeSnapshots(t *testing.T) {
	cfg := testConfig(t)
	cfg.LocalWorkers = 1
	srv := startServer(t, cfg)

	var mu sync.Mutex
	var snaps []serve.JobSnapshot
	var seqs []uint64
	c := dial(t, srv, serve.Options{OnSnapshot: func(snap serve.JobSnapshot, seq uint64) {
		mu.Lock()
		snaps = append(snaps, snap)
		seqs = append(seqs, seq)
		mu.Unlock()
	}})

	f := submitAndWait(t, c, serve.Campaign{Experiment: "sleepy-long"})
	if f.Err != "" {
		t.Fatalf("job failed: %s", f.Err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(snaps) == 0 {
		t.Fatal("no snapshots arrived for a 1s campaign at a 10ms push period")
	}
	for i, snap := range snaps {
		if snap.State != serve.StateRunning {
			t.Errorf("snapshot %d state = %q, want %q", i, snap.State, serve.StateRunning)
		}
		if i > 0 && seqs[i] <= seqs[i-1] {
			t.Errorf("snapshot seqs not increasing: %v", seqs)
		}
	}
	last := snaps[len(snaps)-1]
	if len(last.Stages) == 0 || last.Stages[0].Done == 0 {
		t.Errorf("final snapshot carries no progress: %+v", last)
	}
}

// TestServeResumeDeliversBufferedFinal: a client that disconnects
// mid-run and resumes by token receives the final computed while it was
// away.
func TestServeResumeDeliversBufferedFinal(t *testing.T) {
	cfg := testConfig(t)
	cfg.ClientTTL = 5 * time.Second
	srv := startServer(t, cfg)
	c1 := dial(t, srv, serve.Options{})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	id, err := c1.Submit(ctx, serve.Campaign{Experiment: "sleepy-short"})
	if err != nil {
		t.Fatal(err)
	}
	token := c1.Token()
	c1.Close() // drop mid-run; the session (and the job) lives on

	c2 := dial(t, srv, serve.Options{Token: token})
	if c2.Token() != token {
		t.Fatalf("resumed session token = %q, want %q", c2.Token(), token)
	}
	f, err := c2.Wait(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if f.Err != "" {
		t.Fatalf("job failed: %s", f.Err)
	}
	if f.JobID != id {
		t.Fatalf("final names job %d, want %d", f.JobID, id)
	}
}

// TestServeDrain: draining lets the running job finish and deliver its
// final while new submissions are rejected.
func TestServeDrain(t *testing.T) {
	cfg := testConfig(t)
	cfg.LocalWorkers = 1
	srv := startServer(t, cfg)
	c := dial(t, srv, serve.Options{})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	id, err := c.Submit(ctx, serve.Campaign{Experiment: "sleepy-long"})
	if err != nil {
		t.Fatal(err)
	}
	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(ctx) }()

	// The draining flag is set synchronously at the head of Drain, but
	// give the goroutine a moment to get there.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := c.Submit(ctx, serve.Campaign{Experiment: "sleepy-short"})
		if err != nil && strings.Contains(err.Error(), "draining") {
			break
		}
		if err != nil {
			t.Fatalf("submit during drain: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("submissions never started being rejected")
		}
		time.Sleep(10 * time.Millisecond)
	}

	f, err := c.Wait(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if f.Err != "" {
		t.Fatalf("drained job failed: %s", f.Err)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestServeAuth: wrong shared secrets fail the handshake for both
// clients and workers; the right one connects.
func TestServeAuth(t *testing.T) {
	cfg := testConfig(t)
	cfg.AuthToken = "s3cret"
	srv := startServer(t, cfg)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := serve.Dial(ctx, srv.Addr().String(), serve.Options{Auth: "wrong", Logf: t.Logf}); err == nil {
		t.Fatal("dial with a wrong auth token succeeded")
	}
	if _, err := serve.Dial(ctx, srv.Addr().String(), serve.Options{Logf: t.Logf}); err == nil {
		t.Fatal("dial with no auth token succeeded")
	}

	// A worker with the wrong secret is dropped at the handshake and
	// never joins the pool.
	wctx, wcancel := context.WithCancel(context.Background())
	wdone := make(chan struct{})
	go func() {
		defer close(wdone)
		sweep.RunWorker(wctx, srv.Addr().String(), sweep.WorkerConfig{
			AuthToken:    "wrong",
			ReconnectMin: 10 * time.Millisecond,
			ReconnectMax: 20 * time.Millisecond,
		})
	}()
	time.Sleep(200 * time.Millisecond)
	if n := srv.Workers(); n != 0 {
		t.Fatalf("unauthenticated worker joined the pool (%d connected)", n)
	}
	wcancel()
	<-wdone

	// The right secret works end to end.
	c := dial(t, srv, serve.Options{Auth: "s3cret"})
	wctx2, wcancel2 := context.WithCancel(context.Background())
	wdone2 := make(chan struct{})
	go func() {
		defer close(wdone2)
		sweep.RunWorker(wctx2, srv.Addr().String(), sweep.WorkerConfig{
			AuthToken:    "s3cret",
			Heartbeat:    50 * time.Millisecond,
			ReconnectMin: 10 * time.Millisecond,
			ReconnectMax: 50 * time.Millisecond,
			Logf:         t.Logf,
		})
	}()
	t.Cleanup(func() { wcancel2(); <-wdone2 })
	waitWorkers(t, srv, 1)
	f := submitAndWait(t, c, serve.Campaign{Experiment: "sleepy-short"})
	if f.Err != "" {
		t.Fatalf("authenticated job failed: %s", f.Err)
	}
}

// TestServeRejectsUnknownExperiment: submissions of unregistered names
// fail loudly with the registry vocabulary.
func TestServeRejectsUnknownExperiment(t *testing.T) {
	srv := startServer(t, testConfig(t))
	c := dial(t, srv, serve.Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, err := c.Submit(ctx, serve.Campaign{Experiment: "nope"})
	if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Fatalf("submit of unknown experiment: %v", err)
	}
}

// TestServeCloseWithConnectedWorker: closing (or draining) the server
// while a worker is still attached must terminate — the pool owns the
// worker connections, and Close has to drop them before waiting out the
// demux goroutines parked in their session loops.
func TestServeCloseWithConnectedWorker(t *testing.T) {
	srv := startServer(t, testConfig(t))
	wctx, wcancel := context.WithCancel(context.Background())
	wdone := make(chan struct{})
	go func() {
		defer close(wdone)
		sweep.RunWorker(wctx, srv.Addr().String(), sweep.WorkerConfig{
			Heartbeat:    50 * time.Millisecond,
			ReconnectMin: 10 * time.Millisecond,
			ReconnectMax: 50 * time.Millisecond,
			Logf:         t.Logf,
		})
	}()
	defer func() { wcancel(); <-wdone }()
	waitWorkers(t, srv, 1)

	closed := make(chan struct{})
	go func() {
		defer close(closed)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Drain(ctx)
	}()
	select {
	case <-closed:
	case <-time.After(30 * time.Second):
		t.Fatal("server shutdown deadlocked with a worker still connected")
	}
}

// TestServeWorkerJoinsMidRun: the byte-identity contract holds when a
// sweep worker joins while a campaign is already in flight — the pool
// widens, remote shards contribute, and the result bytes do not move.
func TestServeWorkerJoinsMidRun(t *testing.T) {
	cfg := testConfig(t)
	// One local ticket keeps the 40×25ms campaign in flight (~1s) long
	// past the worker's join, which lands within milliseconds.
	cfg.LocalWorkers = 1
	srv := startServer(t, cfg)
	c := dial(t, srv, serve.Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	seed := int64(7)
	id, err := c.Submit(ctx, serve.Campaign{Experiment: "sleepy-long", Quick: true, Seed: &seed})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}

	wctx, wcancel := context.WithCancel(context.Background())
	wdone := make(chan struct{})
	go func() {
		defer close(wdone)
		sweep.RunWorker(wctx, srv.Addr().String(), sweep.WorkerConfig{
			Heartbeat:    50 * time.Millisecond,
			ReconnectMin: 10 * time.Millisecond,
			ReconnectMax: 50 * time.Millisecond,
			Logf:         t.Logf,
		})
	}()
	t.Cleanup(func() { wcancel(); <-wdone })
	waitWorkers(t, srv, 1)

	f, err := c.Wait(ctx, id)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if f.Err != "" {
		t.Fatalf("job failed: %s", f.Err)
	}
	if want := goldenJSON(t, "sleepy-long"); !bytes.Equal(f.Result, want) {
		t.Fatalf("mid-run worker join changed the result bytes")
	}
	if st := srv.PoolStats(); st.RemoteShards == 0 {
		t.Errorf("worker joined mid-run but computed no shards: %+v", st)
	}
}

// TestServeSurvivesHostileCampaigns: a submission whose params used to
// panic the Fig. 5 engine (Trun 0), a campaign that panics outright, and
// an energy budget that panics inside an engine shard each fail only
// their own job — with the panic's message and stack in the final —
// while a concurrent good fig5 job still returns exactly its local
// bytes, and the server keeps admitting work afterwards.
func TestServeSurvivesHostileCampaigns(t *testing.T) {
	srv := startServer(t, testConfig(t))
	c := dial(t, srv, serve.Options{})
	seed := int64(7)
	specs := []serve.Campaign{
		{Experiment: "fig5", Quick: true, Seed: &seed, Params: []byte(`{"CDF":{"Trun":0}}`)},
		{Experiment: "panicky"},
		{Experiment: "fig5", Quick: true, Seed: &seed},
		{Experiment: "energy", Quick: true, Params: []byte(`{"RedundancyBudget":{"SpareRows":-1,"SpareCols":0}}`)},
	}
	finals := make([]*serve.FinalResult, len(specs))
	var wg sync.WaitGroup
	for i, spec := range specs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			finals[i] = submitAndWait(t, c, spec)
		}()
	}
	wg.Wait()
	if f := finals[0]; f.Err == "" || !strings.Contains(f.Err, "Trun") {
		t.Errorf("Trun 0 job: err %q, want a Trun param error", f.Err)
	}
	if f := finals[1]; !strings.Contains(f.Err, "synthetic campaign panic") || !strings.Contains(f.Err, "goroutine") {
		t.Errorf("panicking job: err %q, want the panic value and its stack", f.Err)
	}
	if f := finals[3]; !strings.Contains(f.Err, "panicked") || !strings.Contains(f.Err, "goroutine") {
		t.Errorf("energy shard panic: err %q, want the panic value and its stack", f.Err)
	}
	if f := finals[2]; f.Err != "" {
		t.Fatalf("good fig5 job failed: %s", f.Err)
	} else if want := goldenJSON(t, "fig5"); !bytes.Equal(f.Result, want) {
		t.Fatal("good fig5 job diverged from its local bytes next to hostile jobs")
	}
	if f := submitAndWait(t, c, serve.Campaign{Experiment: "sleepy-short"}); f.Err != "" {
		t.Fatalf("server stopped serving after hostile jobs: %s", f.Err)
	}
}
