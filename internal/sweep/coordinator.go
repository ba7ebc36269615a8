package sweep

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"faultmem/internal/exp"
	"faultmem/internal/mc"
	"faultmem/internal/yield"
)

// Config tunes the coordinator's fault-tolerance clocks. The zero value
// selects production defaults; tests shrink everything to milliseconds.
type Config struct {
	// Lease is how long a dispatched shard may go without a heartbeat
	// from its worker before it is reassigned (default 3s).
	Lease time.Duration
	// SessionTTL is how long a disconnected session is kept alive for
	// resume — its in-flight shards stay leased and its buffered results
	// stay acceptable — before it is pruned (default 10s).
	SessionTTL time.Duration
	// MaxRemoteAttempts bounds how many times one shard is dispatched
	// remotely before the coordinator computes it locally (default 3).
	MaxRemoteAttempts int
	// LocalWorkers caps the parallelism of locally computed fallback
	// shards (default GOMAXPROCS).
	LocalWorkers int
	// AuthToken, when non-empty, is the shared secret every worker must
	// present in its Hello (constant-time compared); connections that
	// fail the check are dropped before a session exists.
	AuthToken string
	// Logf, when non-nil, receives one line per robustness event
	// (reassignments, rejected frames, session churn).
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Lease <= 0 {
		c.Lease = 3 * time.Second
	}
	if c.SessionTTL <= 0 {
		c.SessionTTL = 10 * time.Second
	}
	if c.MaxRemoteAttempts <= 0 {
		c.MaxRemoteAttempts = 3
	}
	c.LocalWorkers = mc.Workers(c.LocalWorkers)
	return c
}

// Stats counts the coordinator's robustness events. All fields are
// cumulative totals since the coordinator started.
type Stats struct {
	// RemoteShards / LocalShards split completed shards by where they
	// were computed. LocalShards > 0 on a distributed campaign means the
	// coordinator degraded gracefully (worker errors or pool drain).
	RemoteShards, LocalShards uint64
	// Reassigned counts shard leases that expired (worker death or
	// partition) and went back on the queue.
	Reassigned uint64
	// JobErrors counts shards a worker explicitly failed.
	JobErrors uint64
	// FramesRejected counts corrupt-but-delimited frames dropped without
	// killing their connection.
	FramesRejected uint64
	// DuplicateResults counts late results for already-completed shards —
	// the double-merge attempts the job-ID dedup absorbed.
	DuplicateResults uint64
	// SessionsOpened / SessionsResumed / SessionsPruned trace worker
	// churn: fresh handshakes, token-resumed reconnects, and sessions
	// that out-stayed SessionTTL.
	SessionsOpened, SessionsResumed, SessionsPruned uint64
}

type statsCounters struct {
	remoteShards, localShards, reassigned, jobErrors atomic.Uint64
	framesRejected, duplicateResults                 atomic.Uint64
	sessionsOpened, sessionsResumed, sessionsPruned  atomic.Uint64
}

func (s *statsCounters) snapshot() Stats {
	return Stats{
		RemoteShards:     s.remoteShards.Load(),
		LocalShards:      s.localShards.Load(),
		Reassigned:       s.reassigned.Load(),
		JobErrors:        s.jobErrors.Load(),
		FramesRejected:   s.framesRejected.Load(),
		DuplicateResults: s.duplicateResults.Load(),
		SessionsOpened:   s.sessionsOpened.Load(),
		SessionsResumed:  s.sessionsResumed.Load(),
		SessionsPruned:   s.sessionsPruned.Load(),
	}
}

// campaign is the wire description of one distributed run: every
// runner knob a worker needs to rebuild the coordinator's stage plan
// exactly. It is pinned at Run time and immutable afterwards.
type campaign struct {
	experiment string
	hasSeed    bool
	seed       int64
	quick      bool
	workers    int // resolved (never 0), so machine-dependent plans match
	accum      yield.AccumMode
	bins       int
	params     []byte
}

// job states.
const (
	jobQueued = iota // waiting for a worker slot
	jobLeased        // dispatched, lease ticking
	jobLocal         // being computed by the coordinator itself
	jobDone          // finalized; any further result is a duplicate
)

type outcome struct {
	v   any
	err error
}

// job is one shard in flight through the coordinator.
type job struct {
	id         uint64
	camp       *campaign
	sj         mc.ShardJob
	state      int
	attempts   int       // remote dispatch count
	leaseUntil time.Time // meaningful in jobLeased
	owner      *session  // meaningful in jobLeased
	result     chan outcome
}

// session is one worker's identity across reconnects. conn is nil while
// the worker is disconnected; the session survives until SessionTTL so a
// reconnecting worker can resume and deliver results computed offline.
type session struct {
	token    string
	conn     net.Conn // guarded by Coordinator.mu
	writeMu  sync.Mutex
	lastSeen time.Time
	leased   map[uint64]*job
}

// Coordinator owns a distributed sweep: it accepts worker connections,
// fans the shards of campaigns started via Run/RunAll out to them, and
// survives arbitrary worker churn — reassigning expired leases,
// deduplicating late results by job ID, and finishing locally when the
// pool drains — while keeping results bit-identical to a single-host run.
type Coordinator struct {
	cfg   Config
	ln    net.Listener
	stats statsCounters

	mu          sync.Mutex
	sessions    map[string]*session
	jobs        map[uint64]*job // in-flight (not yet jobDone)
	queue       []*job
	nextID      uint64
	connChanged chan struct{} // replaced on every connect/disconnect
	// localTags are engine runs a worker has failed (unencodable shard
	// type, plan mismatch — deterministic, machine- or code-level
	// failures). Their remaining shards skip the wire and run locally, so
	// one doomed stage does not cost a full round trip per shard.
	localTags map[string]struct{}

	localSem chan struct{}
	kick     chan struct{}
	done     chan struct{}
	closed   sync.Once
	wg       sync.WaitGroup
}

// NewCoordinator starts a coordinator serving workers on ln. Close shuts
// it down.
func NewCoordinator(ln net.Listener, cfg Config) *Coordinator {
	c := NewDetachedCoordinator(cfg)
	c.ln = ln
	c.wg.Add(1)
	go c.acceptLoop()
	return c
}

// NewDetachedCoordinator starts a coordinator without its own listener:
// the caller accepts connections itself, performs the Hello read (and
// whatever multiplexing it needs — the serve mode shares one port
// between workers and clients), and hands worker connections over via
// AdmitWorker. Close shuts it down.
func NewDetachedCoordinator(cfg Config) *Coordinator {
	cfg = cfg.withDefaults()
	c := &Coordinator{
		cfg:         cfg,
		sessions:    map[string]*session{},
		jobs:        map[uint64]*job{},
		localTags:   map[string]struct{}{},
		connChanged: make(chan struct{}),
		localSem:    make(chan struct{}, cfg.LocalWorkers),
		kick:        make(chan struct{}, 1),
		done:        make(chan struct{}),
	}
	c.wg.Add(2)
	go c.scheduler()
	go c.janitor()
	return c
}

// Addr is the listener's address (useful with a ":0" listener in tests).
// It is nil for a detached coordinator.
func (c *Coordinator) Addr() net.Addr {
	if c.ln == nil {
		return nil
	}
	return c.ln.Addr()
}

// Stats returns a snapshot of the robustness counters.
func (c *Coordinator) Stats() Stats { return c.stats.snapshot() }

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// Close tells every connected worker the sweep is over (Done frame),
// drops all connections, and stops the service. Campaigns should have
// finished first; shards still in flight will never complete.
func (c *Coordinator) Close() error {
	c.closed.Do(func() {
		close(c.done)
		if c.ln != nil {
			c.ln.Close()
		}
		c.mu.Lock()
		type farewell struct {
			s    *session
			conn net.Conn
		}
		conns := make([]farewell, 0, len(c.sessions))
		for _, s := range c.sessions {
			if s.conn != nil {
				conns = append(conns, farewell{s, s.conn})
			}
		}
		c.mu.Unlock()
		for _, f := range conns {
			f.s.writeMu.Lock()
			WriteFrame(f.conn, MsgDone, (&Done{}).encode())
			f.conn.Close()
			f.s.writeMu.Unlock()
		}
	})
	c.wg.Wait()
	return nil
}

// ConnectedWorkers counts the worker sessions with a live connection
// right now — the serve scheduler's capacity signal.
func (c *Coordinator) ConnectedWorkers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.connectedLocked()
}

func (c *Coordinator) connectedLocked() int {
	connected := 0
	for _, s := range c.sessions {
		if s.conn != nil {
			connected++
		}
	}
	return connected
}

// AwaitWorkers blocks until at least n workers are connected (or ctx
// dies). Zero returns immediately.
func (c *Coordinator) AwaitWorkers(ctx context.Context, n int) error {
	for {
		c.mu.Lock()
		connected := c.connectedLocked()
		ch := c.connChanged
		c.mu.Unlock()
		if connected >= n {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("sweep: waiting for %d workers (have %d): %w", n, connected, ctx.Err())
		case <-c.done:
			return errors.New("sweep: coordinator closed while awaiting workers")
		case <-ch:
		}
	}
}

// notifyConnChange wakes AwaitWorkers waiters. Callers hold c.mu.
func (c *Coordinator) notifyConnChange() {
	close(c.connChanged)
	c.connChanged = make(chan struct{})
}

// Run executes one registered experiment with its engine shards fanned
// out to the connected workers, falling back to local compute per shard
// on worker failure. The result is bit-identical to exp.Run with the
// same runner on a single host.
func (c *Coordinator) Run(ctx context.Context, name string, r *exp.Runner) (*exp.Result, error) {
	rc, err := c.DistributedRunner(r)
	if err != nil {
		return nil, err
	}
	return exp.Run(ctx, name, rc)
}

// RunAll executes every registered experiment in presentation order with
// shards fanned out to workers, streaming results to emit. Failure
// aggregation follows exp.RunAll.
func (c *Coordinator) RunAll(ctx context.Context, r *exp.Runner, emit func(*exp.Result) error) error {
	rc, err := c.DistributedRunner(r)
	if err != nil {
		return err
	}
	return exp.RunAll(ctx, rc, emit)
}

// DistributedRunner clones r with the shard executor installed — the
// hook the serve scheduler wraps with its fair-share gate. The campaign
// the executor ships is pinned per engine run from the resolved runner
// knobs, so a worker's plan and the coordinator's agree on every
// machine-dependent default.
func (c *Coordinator) DistributedRunner(r *exp.Runner) (*exp.Runner, error) {
	rc := &exp.Runner{}
	if r != nil {
		*rc = *r
	}
	// The wire carries the coordinator's resolved worker count: stage
	// plans that depend on parallelism (Fig. 7 spans) must come out the
	// same on the worker's machine. The local runner keeps the caller's
	// raw value — it resolves to the same plan here, and experiments echo
	// it into their reported params, which must match a single-host run.
	camp := &campaign{
		quick:   rc.Quick,
		accum:   rc.Accum,
		bins:    rc.Bins,
		workers: mc.Workers(rc.Workers),
	}
	if rc.Seed != nil {
		camp.hasSeed, camp.seed = true, *rc.Seed
	}
	switch p := rc.Params.(type) {
	case nil:
	case json.RawMessage:
		camp.params = append([]byte(nil), p...)
	case []byte:
		camp.params = append([]byte(nil), p...)
	default:
		// A concrete params struct can cross the wire as its JSON
		// encoding: the worker decodes it strictly over the defaults,
		// and float64 JSON round-trips are exact.
		b, err := json.Marshal(p)
		if err != nil {
			return nil, fmt.Errorf("sweep: params override is not wireable: %w", err)
		}
		camp.params = b
	}
	rc.Exec = func(sj mc.ShardJob) (any, error) {
		// The campaign's experiment name is the tag's first component
		// ("experiment" or "experiment/stage") — the engine run names
		// itself, so one runner can serve every experiment of a RunAll.
		camp := *camp
		camp.experiment = sj.Tag
		if i := strings.IndexByte(sj.Tag, '/'); i >= 0 {
			camp.experiment = sj.Tag[:i]
		}
		return c.execute(&camp, sj)
	}
	return rc, nil
}

// execute is the mc.ExecFunc of a distributed campaign: enqueue the
// shard, wait for a worker (or the local fallback) to deliver it.
func (c *Coordinator) execute(camp *campaign, sj mc.ShardJob) (any, error) {
	if e, ok := exp.Lookup(camp.experiment); !ok || !isPlanner(e) {
		// A worker can only rebuild the stages of an experiment that
		// declares a plan; every other engine run (untagged, or a helper
		// run inside an experiment) is computed here.
		return sj.Run(), nil
	}
	j := &job{camp: camp, sj: sj, result: make(chan outcome, 1)}

	c.mu.Lock()
	c.nextID++
	j.id = c.nextID
	c.jobs[j.id] = j
	if _, poisoned := c.localTags[sj.Tag]; poisoned {
		// A worker already proved this engine run cannot travel; don't
		// burn a round trip per shard finding that out again.
		j.state = jobLocal
		c.mu.Unlock()
		c.runLocal(j)
	} else if c.liveSessionsLocked() == 0 {
		// No one to send it to and no one likely to return: degrade to
		// local compute immediately.
		j.state = jobLocal
		c.mu.Unlock()
		c.runLocal(j)
	} else {
		j.state = jobQueued
		c.queue = append(c.queue, j)
		c.mu.Unlock()
		c.kickScheduler()
	}

	select {
	case out := <-j.result:
		return out.v, out.err
	case <-sj.Ctx.Done():
		c.abandon(j)
		return nil, sj.Ctx.Err()
	}
}

func isPlanner(e exp.Experiment) bool {
	_, ok := e.(exp.Planner)
	return ok
}

// liveSessionsLocked counts sessions that are connected or still within
// their resume window — the "someone may yet deliver results" set.
func (c *Coordinator) liveSessionsLocked() int {
	now := time.Now()
	n := 0
	for _, s := range c.sessions {
		if s.conn != nil || now.Sub(s.lastSeen) <= c.cfg.SessionTTL {
			n++
		}
	}
	return n
}

func (c *Coordinator) kickScheduler() {
	select {
	case c.kick <- struct{}{}:
	default:
	}
}

// finalize completes a job exactly once. Reports whether this call won —
// a false return means a duplicate (late result, racing local fallback)
// that must be dropped.
func (c *Coordinator) finalize(j *job, v any, err error) bool {
	c.mu.Lock()
	if j.state == jobDone {
		c.mu.Unlock()
		return false
	}
	j.state = jobDone
	delete(c.jobs, j.id)
	if j.owner != nil {
		delete(j.owner.leased, j.id)
		j.owner = nil
	}
	c.mu.Unlock()
	j.result <- outcome{v: v, err: err}
	return true
}

// abandon drops a job whose campaign died: late results for it become
// duplicates.
func (c *Coordinator) abandon(j *job) {
	c.mu.Lock()
	if j.state == jobDone {
		c.mu.Unlock()
		return
	}
	j.state = jobDone
	delete(c.jobs, j.id)
	var owner *session
	if j.owner != nil {
		delete(j.owner.leased, j.id)
		owner, j.owner = j.owner, nil
	}
	c.mu.Unlock()
	if owner != nil {
		go c.send(owner, MsgCancel, (&Cancel{IDs: []uint64{j.id}}).encode())
	}
}

// runLocal computes one shard on the coordinator, gated by the local
// semaphore so a drained pool degrades to bounded local parallelism
// rather than a thundering herd.
func (c *Coordinator) runLocal(j *job) {
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		select {
		case c.localSem <- struct{}{}:
			defer func() { <-c.localSem }()
		case <-j.sj.Ctx.Done():
			c.finalize(j, nil, j.sj.Ctx.Err())
			return
		}
		if err := j.sj.Ctx.Err(); err != nil {
			c.finalize(j, nil, err)
			return
		}
		v := j.sj.Run()
		if c.finalize(j, v, nil) {
			c.stats.localShards.Add(1)
		}
	}()
}

// requeueLocked routes a job that lost its lease: back on the queue while
// remote attempts remain, to local compute after. Callers hold c.mu and
// must kick the scheduler after unlocking.
func (c *Coordinator) requeueLocked(j *job) {
	if j.owner != nil {
		delete(j.owner.leased, j.id)
		j.owner = nil
	}
	if j.attempts >= c.cfg.MaxRemoteAttempts {
		j.state = jobLocal
		c.runLocal(j)
		return
	}
	j.state = jobQueued
	c.queue = append(c.queue, j)
}

// scheduler assigns queued jobs to connected workers, least-loaded first.
func (c *Coordinator) scheduler() {
	defer c.wg.Done()
	for {
		select {
		case <-c.done:
			return
		case <-c.kick:
		}
		for c.assignOne() {
		}
	}
}

// assignOne dispatches one queued job; reports whether it did (or
// discarded a stale queue entry), so the scheduler drains in a loop.
func (c *Coordinator) assignOne() bool {
	c.mu.Lock()
	var j *job
	for len(c.queue) > 0 {
		head := c.queue[0]
		c.queue = c.queue[1:]
		if head.state == jobQueued {
			j = head
			break
		}
		// Stale entry (finalized or gone local while queued): drop it.
	}
	if j == nil {
		c.mu.Unlock()
		return false
	}
	var best *session
	for _, s := range c.sessions {
		if s.conn == nil {
			continue
		}
		if best == nil || len(s.leased) < len(best.leased) {
			best = s
		}
	}
	if best == nil {
		// No connected worker right now. Put it back; the janitor either
		// finds a reconnected worker later or degrades it to local when
		// the pool is truly gone.
		c.queue = append([]*job{j}, c.queue...)
		c.mu.Unlock()
		return false
	}
	j.state = jobLeased
	j.owner = best
	j.attempts++
	j.leaseUntil = time.Now().Add(c.cfg.Lease)
	best.leased[j.id] = j
	msg := &Job{
		ID:         j.id,
		Experiment: j.camp.experiment,
		Tag:        j.sj.Tag,
		Shard:      j.sj.Shard,
		Shards:     j.sj.Shards,
		HasSeed:    j.camp.hasSeed,
		Seed:       j.camp.seed,
		Quick:      j.camp.quick,
		Workers:    j.camp.workers,
		Accum:      j.camp.accum,
		Bins:       j.camp.bins,
		Params:     j.camp.params,
	}
	c.mu.Unlock()
	if err := c.send(best, MsgJob, msg.encode()); err != nil {
		// The write failed: the connection is dead. The lease keeps the
		// job recoverable; detach so the janitor sees the disconnect.
		c.detach(best)
	}
	return true
}

// send writes one frame on a session's current connection.
func (c *Coordinator) send(s *session, t MsgType, payload []byte) error {
	return c.sendFlags(s, t, 0, payload)
}

// sendFlags is send with frame flags (the Welcome gzip negotiation
// echo; job and control frames stay plain — result blobs, the payloads
// worth compressing, flow the other way).
func (c *Coordinator) sendFlags(s *session, t MsgType, flags byte, payload []byte) error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	c.mu.Lock()
	conn := s.conn
	c.mu.Unlock()
	if conn == nil {
		return errors.New("sweep: session disconnected")
	}
	return WriteFrameFlags(conn, t, flags, payload)
}

// detach marks a session disconnected (its conn closed), leaving it
// resumable until SessionTTL.
func (c *Coordinator) detach(s *session) {
	c.mu.Lock()
	if s.conn != nil {
		s.conn.Close()
		s.conn = nil
		s.lastSeen = time.Now()
		c.notifyConnChange()
	}
	c.mu.Unlock()
}

// janitor is the churn clock: it expires shard leases, prunes sessions
// past their resume window, degrades the queue to local compute when the
// pool is gone, and re-kicks the scheduler.
func (c *Coordinator) janitor() {
	defer c.wg.Done()
	tick := c.cfg.Lease / 4
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-c.done:
			return
		case <-t.C:
		}
		now := time.Now()
		c.mu.Lock()
		// Expired leases: the worker died, partitioned, or is too slow —
		// reassign the shard. If its result still arrives later, the
		// job-ID dedup drops whichever copy comes second.
		for _, j := range c.jobs {
			if j.state == jobLeased && now.After(j.leaseUntil) {
				c.stats.reassigned.Add(1)
				c.logf("sweep: [job %d] lease expired for shard %d of %s (attempt %d), reassigning",
					j.id, j.sj.Shard, j.sj.Tag, j.attempts)
				c.requeueLocked(j)
			}
		}
		// Sessions past the resume window.
		for token, s := range c.sessions {
			if s.conn == nil && now.Sub(s.lastSeen) > c.cfg.SessionTTL {
				delete(c.sessions, token)
				c.stats.sessionsPruned.Add(1)
				c.logf("sweep: pruned session %s after %v offline", token, now.Sub(s.lastSeen))
				for _, j := range s.leased {
					c.requeueLocked(j)
				}
			}
		}
		// Pool drained: no worker will ever take the queue — finish the
		// campaign locally.
		if len(c.queue) > 0 && c.liveSessionsLocked() == 0 {
			queued := c.queue
			c.queue = nil
			n := 0
			for _, j := range queued {
				if j.state == jobQueued {
					j.state = jobLocal
					c.runLocal(j)
					n++
				}
			}
			if n > 0 {
				c.logf("sweep: worker pool drained, computing %d queued shards locally", n)
			}
		}
		c.mu.Unlock()
		c.kickScheduler()
	}
}

// acceptLoop admits worker connections.
func (c *Coordinator) acceptLoop() {
	defer c.wg.Done()
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			select {
			case <-c.done:
				return
			default:
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			return
		}
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			c.handleConn(conn)
		}()
	}
}

func randToken() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("sweep: crypto/rand failed: %v", err))
	}
	return hex.EncodeToString(b[:])
}

// handleConn runs one worker connection: handshake, then the inbound
// message loop. Corrupt-but-delimited frames are counted and skipped;
// desynchronized streams drop only this connection — the session (and its
// leased shards) survives for the worker's reconnect.
func (c *Coordinator) handleConn(conn net.Conn) {
	defer conn.Close()
	t, flags, payload, err := ReadFrameFlags(conn)
	if err != nil || t != MsgHello {
		return
	}
	m, err := DecodeMessage(t, payload)
	if err != nil {
		return
	}
	c.AdmitWorker(conn, m.(*Hello), flags)
}

// AdmitWorker runs one worker connection whose Hello frame has already
// been read — the entry point for callers that accept and demultiplex
// connections themselves (the serve mode's shared listener). It blocks
// until the connection dies, closes conn on return, and leaves the
// session resumable until SessionTTL.
func (c *Coordinator) AdmitWorker(conn net.Conn, hello *Hello, flags byte) {
	defer conn.Close()
	if !AuthEqual(c.cfg.AuthToken, hello.Auth) {
		c.logf("sweep: worker from %v failed authentication, dropped", conn.RemoteAddr())
		return
	}
	// FlagGzipOK on Hello advertises a flags-aware worker; echoing it on
	// Welcome — and only then — turns compression on for this
	// connection. A pre-flags worker never sees a flagged frame.
	gzipOK := flags&FlagGzipOK != 0

	c.mu.Lock()
	s := c.sessions[hello.Token]
	if s != nil {
		// Resume: adopt the new connection, dropping any stale one.
		if s.conn != nil {
			s.conn.Close()
		}
		s.conn = conn
		s.lastSeen = time.Now()
		c.stats.sessionsResumed.Add(1)
		c.logf("sweep: session %s resumed from %v", s.token, conn.RemoteAddr())
	} else {
		s = &session{
			token:    randToken(),
			conn:     conn,
			lastSeen: time.Now(),
			leased:   map[uint64]*job{},
		}
		c.sessions[s.token] = s
		c.stats.sessionsOpened.Add(1)
		c.logf("sweep: session %s opened from %v", s.token, conn.RemoteAddr())
	}
	token := s.token
	c.notifyConnChange()
	c.mu.Unlock()

	welcomeFlags := byte(0)
	if gzipOK {
		welcomeFlags = FlagGzipOK
	}
	if err := c.sendFlags(s, MsgWelcome, welcomeFlags, (&Welcome{Token: token}).encode()); err != nil {
		c.detach(s)
		return
	}
	c.kickScheduler()

	for {
		t, payload, err := ReadFrame(conn)
		if err != nil {
			if err != io.EOF && !errors.Is(err, net.ErrClosed) {
				c.logf("sweep: session %s connection dropped: %v", token, err)
			}
			break
		}
		msg, err := DecodeMessage(t, payload)
		if err != nil {
			c.stats.framesRejected.Add(1)
			c.logf("sweep: session %s sent a corrupt frame, rejected: %v", token, err)
			continue
		}
		c.mu.Lock()
		s.lastSeen = time.Now()
		c.mu.Unlock()
		switch m := msg.(type) {
		case *Result:
			c.handleResult(s, m)
		case *JobError:
			c.handleJobError(s, m)
		case *Heartbeat:
			c.handleHeartbeat(s, m)
		default:
			// A worker has no business sending Job/Welcome/etc; treat it
			// like a corrupt frame.
			c.stats.framesRejected.Add(1)
		}
	}
	// The conn died (or the worker closed it). Keep the session; only
	// clear this connection if it is still the session's current one.
	c.mu.Lock()
	if s.conn == conn {
		s.conn = nil
		s.lastSeen = time.Now()
		c.notifyConnChange()
	}
	c.mu.Unlock()
}

// handleResult merges one remotely computed shard. Results are
// deduplicated by job ID: whatever arrives after a shard completed —
// a slow worker's answer to a reassigned shard, a duplicated frame —
// is dropped, so double-merging is structurally impossible.
func (c *Coordinator) handleResult(s *session, m *Result) {
	c.mu.Lock()
	j := c.jobs[m.ID]
	done := j != nil && j.state == jobDone
	c.mu.Unlock()
	if j == nil || done {
		c.stats.duplicateResults.Add(1)
		return
	}
	if m.Shard != j.sj.Shard {
		// The payload disagrees with the job binding — corruption that
		// survived the checksum, or a confused worker. Never merge it.
		c.stats.framesRejected.Add(1)
		c.logf("sweep: result for job %d names shard %d, want %d — rejected", m.ID, m.Shard, j.sj.Shard)
		return
	}
	v, err := j.sj.Decode(m.Data)
	if err != nil {
		// Undecodable payload: recompute rather than fail the campaign.
		c.logf("sweep: [job %d] result for shard %d of %s undecodable (%v), recomputing", j.id, j.sj.Shard, j.sj.Tag, err)
		c.mu.Lock()
		if j.state != jobDone {
			c.requeueLocked(j)
		}
		c.mu.Unlock()
		c.kickScheduler()
		return
	}
	if c.finalize(j, v, nil) {
		c.stats.remoteShards.Add(1)
	} else {
		c.stats.duplicateResults.Add(1)
	}
}

// handleJobError routes a shard the worker could not compute to local
// compute: worker-side failures (unencodable shard type, plan mismatch,
// failed prepare) are deterministic, so redispatching them remotely would
// fail everywhere. The whole engine run is poisoned along with it —
// every sibling shard of the same tag, queued or in flight, moves to
// local compute and the workers are told to abandon theirs.
func (c *Coordinator) handleJobError(s *session, m *JobError) {
	c.stats.jobErrors.Add(1)
	c.mu.Lock()
	j := c.jobs[m.ID]
	if j == nil || j.state == jobDone {
		c.mu.Unlock()
		return
	}
	tag := j.sj.Tag
	c.logf("sweep: [job %d] worker failed shard %d of %s (%s); computing that run locally", j.id, j.sj.Shard, tag, m.Msg)
	c.localTags[tag] = struct{}{}
	var toLocal []*job
	cancels := map[*session][]uint64{}
	for _, sib := range c.jobs {
		if sib.sj.Tag != tag || (sib.state != jobQueued && sib.state != jobLeased) {
			continue
		}
		if sib.owner != nil {
			cancels[sib.owner] = append(cancels[sib.owner], sib.id)
			delete(sib.owner.leased, sib.id)
			sib.owner = nil
		}
		sib.state = jobLocal
		toLocal = append(toLocal, sib)
	}
	c.mu.Unlock()
	for _, sib := range toLocal {
		c.runLocal(sib)
	}
	for owner, ids := range cancels {
		owner, ids := owner, ids
		go c.send(owner, MsgCancel, (&Cancel{IDs: ids}).encode())
	}
}

// handleHeartbeat refreshes the leases the worker claims in flight and
// pongs, so both sides can distinguish silent-alive from dead.
func (c *Coordinator) handleHeartbeat(s *session, m *Heartbeat) {
	now := time.Now()
	c.mu.Lock()
	for _, id := range m.InFlight {
		if j, ok := s.leased[id]; ok {
			j.leaseUntil = now.Add(c.cfg.Lease)
		}
	}
	c.mu.Unlock()
	c.send(s, MsgHeartbeat, (&Heartbeat{}).encode())
}
