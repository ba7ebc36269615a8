package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"faultmem/internal/exp"
	"faultmem/internal/mc"
	"faultmem/internal/workload"
)

// WorkerConfig tunes a worker's liveness clocks. The zero value selects
// production defaults; tests shrink everything to milliseconds.
type WorkerConfig struct {
	// Heartbeat is the interval between lease-refreshing heartbeats
	// (default 1s). It must be comfortably below the coordinator's Lease
	// or healthy shards get reassigned mid-compute.
	Heartbeat time.Duration
	// PongTimeout is how long the connection may stay silent (no pong,
	// no job, nothing) before the worker declares it dead and reconnects
	// — the defense against a black-holed-but-open TCP connection
	// (default 4x Heartbeat).
	PongTimeout time.Duration
	// ReconnectMin/ReconnectMax bound the jittered exponential backoff
	// between connection attempts (defaults 100ms / 5s).
	ReconnectMin, ReconnectMax time.Duration
	// LocalWorkers caps the worker's compute parallelism across all
	// in-flight shards (default GOMAXPROCS).
	LocalWorkers int
	// AuthToken is the shared secret presented in the Hello handshake
	// when the coordinator's listening port requires one.
	AuthToken string
	// Logf, when non-nil, receives one line per connection event.
	Logf func(format string, args ...any)
	// Stats, when non-nil, receives the worker's counters.
	Stats *WorkerStats
}

// WorkerStats counts what a worker did with the jobs it was sent;
// RunWorker updates it atomically while it runs.
type WorkerStats struct {
	// Computed counts shard computations started: one per job whose
	// stage the worker's plan declares, and never any other shard.
	Computed atomic.Uint64
	// Refused counts jobs answered with a JobError (unknown stage, plan
	// mismatch, failed prepare, unencodable shard, panic).
	Refused atomic.Uint64
}

func (c WorkerConfig) withDefaults() WorkerConfig {
	if c.Heartbeat <= 0 {
		c.Heartbeat = time.Second
	}
	if c.PongTimeout <= 0 {
		c.PongTimeout = 4 * c.Heartbeat
	}
	if c.ReconnectMin <= 0 {
		c.ReconnectMin = 100 * time.Millisecond
	}
	if c.ReconnectMax <= 0 {
		c.ReconnectMax = 5 * time.Second
	}
	if c.ReconnectMax < c.ReconnectMin {
		c.ReconnectMax = c.ReconnectMin
	}
	c.LocalWorkers = mc.Workers(c.LocalWorkers)
	if c.Stats == nil {
		c.Stats = &WorkerStats{}
	}
	return c
}

// worker is the client side of the sweep protocol: it computes each
// assigned shard alone from its campaign's declared plan, survives
// coordinator restarts and network churn by reconnecting with backoff
// and resuming its session, and buffers results computed while
// disconnected for redelivery.
type worker struct {
	cfg WorkerConfig

	mu       sync.Mutex
	token    string // session token; empty until the first Welcome
	conn     net.Conn
	gzip     bool // coordinator echoed FlagGzipOK on this connection
	inflight map[uint64]context.CancelFunc
	pending  []Message // results awaiting a live connection

	// legacyHello strips the FlagGzipOK advertisement from the next
	// handshake. It is set when a flagged handshake dies before Welcome:
	// a pre-flags coordinator reads the flagged Hello as an unknown
	// frame type and hangs up, so the worker retries plain — trading
	// compression away for interop. (A transient network failure at
	// exactly the wrong moment costs the same downgrade; that only
	// forgoes an optimization, never correctness.)
	legacyHello bool

	sendMu      sync.Mutex
	lastInbound atomic.Int64 // unix nanos of the last valid frame
	sem         chan struct{}
	wg          sync.WaitGroup
}

// RunWorker connects to a coordinator at addr and serves shard jobs until
// the coordinator says Done (returns nil) or ctx dies (returns ctx.Err()).
// Connection loss is not an exit condition: the worker reconnects with
// jittered exponential backoff, resumes its session by token, and
// re-delivers any results it computed while disconnected.
func RunWorker(ctx context.Context, addr string, cfg WorkerConfig) error {
	// Every job rebuilds its stage, and a stage prepares its workload
	// instance on first use: the process-wide cache makes that a lookup
	// for every job after the first of each campaign.
	workload.EnableInstanceCache(0)
	cfg = cfg.withDefaults()
	w := &worker{
		cfg:      cfg,
		inflight: map[uint64]context.CancelFunc{},
		sem:      make(chan struct{}, cfg.LocalWorkers),
	}
	defer w.wg.Wait()
	defer w.cancelJobs(nil)
	backoff := w.cfg.ReconnectMin
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		var d net.Dialer
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			w.logf("sweep worker: dial %s: %v (retrying in ~%v)", addr, err, backoff)
			if !sleepCtx(ctx, jitter(backoff)) {
				return ctx.Err()
			}
			backoff *= 2
			if backoff > w.cfg.ReconnectMax {
				backoff = w.cfg.ReconnectMax
			}
			continue
		}
		finished, err := w.serveConn(ctx, conn)
		if finished {
			return err
		}
		// The connection died but the sweep may still be on: retry from
		// the floor (we just had a working link; the jitter still spreads
		// a thundering herd of restarted workers).
		backoff = w.cfg.ReconnectMin
		if !sleepCtx(ctx, jitter(backoff)) {
			return ctx.Err()
		}
	}
}

// jitter spreads a backoff delay over [d/2, d] so a fleet of workers
// restarted together does not reconnect in lockstep.
func jitter(d time.Duration) time.Duration {
	half := int64(d / 2)
	if half <= 0 {
		return d
	}
	return time.Duration(half + rand.Int63n(half+1))
}

// sleepCtx sleeps d; reports false if ctx died first.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

func (w *worker) logf(format string, args ...any) {
	if w.cfg.Logf != nil {
		w.cfg.Logf(format, args...)
	}
}

// serveConn runs one connection: handshake (new session or token
// resume), pending-result flush, then the job loop. It reports finished
// = true only on a clean Done or a dead ctx; everything else means
// "reconnect and carry on".
func (w *worker) serveConn(ctx context.Context, conn net.Conn) (finished bool, err error) {
	defer conn.Close()

	w.mu.Lock()
	token := w.token
	helloFlags := byte(FlagGzipOK)
	if w.legacyHello {
		helloFlags = 0
	}
	w.mu.Unlock()
	if err := WriteFrameFlags(conn, MsgHello, helloFlags, (&Hello{Token: token, Auth: w.cfg.AuthToken}).encode()); err != nil {
		return false, err
	}
	t, flags, payload, err := ReadFrameFlags(conn)
	if err != nil || t != MsgWelcome {
		if helloFlags != 0 {
			// A coordinator that predates frame flags reads a flagged
			// Hello as an unknown frame type and drops the connection
			// before any Welcome. Retry plain from now on.
			w.mu.Lock()
			w.legacyHello = true
			w.mu.Unlock()
			w.logf("sweep worker: flagged handshake failed, retrying without frame flags")
		}
		if err != nil {
			return false, err
		}
		return false, fmt.Errorf("sweep worker: handshake got %v, want welcome", t)
	}
	m, err := DecodeMessage(t, payload)
	if err != nil {
		return false, err
	}
	welcome := m.(*Welcome)

	w.mu.Lock()
	resumed := w.token != "" && w.token == welcome.Token
	w.token = welcome.Token
	w.conn = conn
	w.gzip = flags&FlagGzipOK != 0
	w.mu.Unlock()
	defer func() {
		w.mu.Lock()
		if w.conn == conn {
			w.conn = nil
			w.gzip = false
		}
		w.mu.Unlock()
	}()
	w.lastInbound.Store(time.Now().UnixNano())
	if resumed {
		w.logf("sweep worker: session %s resumed", welcome.Token)
	} else {
		w.logf("sweep worker: session %s opened", welcome.Token)
	}

	// Results computed while disconnected go first — the slow worker's
	// late answer is the coordinator's problem to dedup, not ours to drop.
	w.flushPending()

	hbStop := make(chan struct{})
	defer close(hbStop)
	go w.heartbeatLoop(conn, hbStop)
	go func() {
		// Unblock the read loop if ctx dies mid-read.
		select {
		case <-ctx.Done():
			conn.Close()
		case <-hbStop:
		}
	}()

	for {
		t, payload, err := ReadFrame(conn)
		if ctx.Err() != nil {
			return true, ctx.Err()
		}
		if err != nil {
			var fe *FrameError
			if errors.As(err, &fe) && !fe.Fatal {
				// Corrupt but well-delimited: skip the frame, keep the
				// connection.
				w.logf("sweep worker: rejected corrupt frame: %v", err)
				continue
			}
			if err != io.EOF {
				w.logf("sweep worker: connection lost: %v", err)
			}
			return false, err
		}
		w.lastInbound.Store(time.Now().UnixNano())
		msg, err := DecodeMessage(t, payload)
		if err != nil {
			w.logf("sweep worker: rejected corrupt payload: %v", err)
			continue
		}
		switch m := msg.(type) {
		case *Job:
			w.startJob(ctx, m)
		case *Heartbeat:
			// Pong: lastInbound already refreshed above.
		case *Cancel:
			w.cancelJobs(m.IDs)
		case *Done:
			w.logf("sweep worker: coordinator done, exiting")
			w.cancelJobs(nil)
			return true, nil
		default:
			w.logf("sweep worker: unexpected %v frame ignored", t)
		}
	}
}

// heartbeatLoop refreshes the leases of in-flight jobs and watches for a
// silent connection: if nothing valid arrives within PongTimeout the link
// is presumed black-holed and closed, which sends the read loop into the
// reconnect path.
func (w *worker) heartbeatLoop(conn net.Conn, stop <-chan struct{}) {
	t := time.NewTicker(w.cfg.Heartbeat)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		silent := time.Since(time.Unix(0, w.lastInbound.Load()))
		if silent > w.cfg.PongTimeout {
			w.logf("sweep worker: no traffic for %v, dropping connection", silent)
			conn.Close()
			return
		}
		w.mu.Lock()
		ids := make([]uint64, 0, len(w.inflight))
		for id := range w.inflight {
			ids = append(ids, id)
		}
		w.mu.Unlock()
		if err := w.sendMsg(&Heartbeat{InFlight: ids}); err != nil {
			conn.Close()
			return
		}
	}
}

// sendMsg writes one message on the current connection, gzip-framing
// payloads worth compressing when the coordinator negotiated FlagGzipOK
// on this connection (in practice that is shard-result blobs — every
// other worker message is far below CompressMin).
func (w *worker) sendMsg(m Message) error {
	w.sendMu.Lock()
	defer w.sendMu.Unlock()
	w.mu.Lock()
	conn, gz := w.conn, w.gzip
	w.mu.Unlock()
	if conn == nil {
		return errors.New("sweep worker: not connected")
	}
	payload := m.payload()
	var flags byte
	if gz && len(payload) >= CompressMin {
		flags = FlagGzip
	}
	return WriteFrameFlags(conn, m.msgType(), flags, payload)
}

// deliver sends a result, buffering it for the next successful handshake
// when the connection is down.
func (w *worker) deliver(m Message) {
	if err := w.sendMsg(m); err != nil {
		w.mu.Lock()
		w.pending = append(w.pending, m)
		w.mu.Unlock()
	}
}

// flushPending re-delivers results buffered across a disconnect.
func (w *worker) flushPending() {
	w.mu.Lock()
	p := w.pending
	w.pending = nil
	w.mu.Unlock()
	for i, m := range p {
		if err := w.sendMsg(m); err != nil {
			w.mu.Lock()
			w.pending = append(p[i:], w.pending...)
			w.mu.Unlock()
			return
		}
	}
	if len(p) > 0 {
		w.logf("sweep worker: re-delivered %d buffered results", len(p))
	}
}

// startJob begins computing one assigned shard. Duplicate assignments of
// an in-flight job (a reassignment that landed back here) are ignored —
// the running computation will answer; a duplicate of a finished job is
// simply recomputed, which is safe because shards are deterministic.
func (w *worker) startJob(ctx context.Context, jm *Job) {
	w.mu.Lock()
	if _, dup := w.inflight[jm.ID]; dup {
		w.mu.Unlock()
		return
	}
	jctx, cancel := context.WithCancel(ctx)
	w.inflight[jm.ID] = cancel
	w.mu.Unlock()
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		defer cancel()
		msg := w.computeJob(jctx, jm)
		w.mu.Lock()
		delete(w.inflight, jm.ID)
		w.mu.Unlock()
		if msg != nil {
			w.deliver(msg)
		}
	}()
}

// cancelJobs aborts the listed in-flight jobs (all of them when ids is
// empty).
func (w *worker) cancelJobs(ids []uint64) {
	w.mu.Lock()
	if len(ids) == 0 {
		for _, cancel := range w.inflight {
			cancel()
		}
	} else {
		for _, id := range ids {
			if cancel, ok := w.inflight[id]; ok {
				cancel()
			}
		}
	}
	w.mu.Unlock()
}

// computeJob computes the job's one shard and packages the outcome. A
// nil return means the job was cancelled and nobody wants the answer. A
// panic in the shard (hostile params the checks missed, say) fails only
// this job: it is answered with a JobError carrying the stack, and the
// coordinator computes that engine run on its own side.
func (w *worker) computeJob(ctx context.Context, jm *Job) (reply Message) {
	defer func() {
		if p := recover(); p != nil {
			w.cfg.Stats.Refused.Add(1)
			reply = &JobError{ID: jm.ID, Msg: fmt.Sprintf("sweep worker: shard %d of %q panicked: %v\n%s", jm.Shard, jm.Tag, p, debug.Stack())}
		}
	}()
	data, err := w.computeShard(ctx, jm)
	if ctx.Err() != nil {
		return nil
	}
	if err != nil {
		w.cfg.Stats.Refused.Add(1)
		return &JobError{ID: jm.ID, Msg: err.Error()}
	}
	return &Result{ID: jm.ID, Shard: jm.Shard, Data: data}
}

// computeShard builds the job's campaign plan — same experiment, seed,
// budget tier and parameter overrides as the coordinator's, so the two
// plans agree — finds the job's stage by tag and computes that one
// shard. No other shard or stage runs: stages are independent, and the
// stage prepares its own inputs (memoized across jobs by the process
// instance cache). A stage the plan does not declare, or one whose
// shard count differs from the job's, is refused: the shard index would
// name a different slice of work.
func (w *worker) computeShard(ctx context.Context, jm *Job) ([]byte, error) {
	r := &exp.Runner{
		Workers: jm.Workers,
		Quick:   jm.Quick,
		Accum:   jm.Accum,
		Bins:    jm.Bins,
	}
	if jm.HasSeed {
		seed := jm.Seed
		r.Seed = &seed
	}
	if len(jm.Params) > 0 {
		r.Params = json.RawMessage(jm.Params)
	}
	st, err := exp.PlanStage(jm.Experiment, r, jm.Tag)
	if err != nil {
		return nil, fmt.Errorf("sweep worker: %w", err)
	}
	if st.Shards != jm.Shards {
		return nil, fmt.Errorf("sweep worker: plan mismatch for %q: job wants shard %d of %d, local plan has %d shards",
			jm.Tag, jm.Shard, jm.Shards, st.Shards)
	}
	select {
	case w.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-w.sem }()
	w.cfg.Stats.Computed.Add(1)
	return st.Compute(ctx, jm.Shard)
}
