// Package serve is the long-lived campaign service: one shared listener
// accepts both sweep workers (contributing shard compute) and clients
// (submitting campaigns), schedules every admitted campaign over the
// one shared pool with fair-share tickets at shard granularity, streams
// periodic partial-state snapshots plus the final result to each
// client, and keeps cross-request caches (scheme memo tables, prepared
// workload instances) warm between submissions. Campaign results are
// bit-identical to a direct exp.Run of the same runner — the engine's
// determinism is independent of scheduling, pool size, and worker
// churn.
package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"faultmem/internal/exp"
	"faultmem/internal/mc"
	"faultmem/internal/sweep"
	"faultmem/internal/workload"
)

// Config tunes the campaign server. The zero value selects production
// defaults; tests shrink the clocks to milliseconds.
type Config struct {
	// Sweep configures the embedded shard coordinator (worker leases,
	// worker-session TTLs, remote-attempt bounds). Its AuthToken and
	// LocalWorkers are overridden by the server's own; its Logf defaults
	// to the server's.
	Sweep sweep.Config
	// AuthToken, when non-empty, is the shared secret every worker and
	// client must present in its handshake (constant-time compared;
	// failing connections are dropped before any state exists).
	AuthToken string
	// WorkerSlots is how many scheduler tickets each connected worker
	// contributes — the per-worker shard concurrency the fair-share gate
	// assumes (default 4).
	WorkerSlots int
	// LocalWorkers is the capacity floor: the shards the server computes
	// itself when the pool is empty (default GOMAXPROCS).
	LocalWorkers int
	// ClientInflight caps one client's concurrently executing shards
	// across all of its campaigns, so a single client cannot monopolize
	// the pool (default 0 = uncapped; fair-share still applies).
	ClientInflight int
	// SnapshotEvery is the partial-state push period (default 1s).
	SnapshotEvery time.Duration
	// ClientTTL is the resume window of a disconnected client session:
	// within it the session's jobs keep running and final results are
	// buffered for redelivery; past it the session is pruned and its
	// unfinished jobs cancelled (default 30s).
	ClientTTL time.Duration
	// Logf, when non-nil, receives one line per lifecycle event, with a
	// "[job N]" prefix on job-scoped lines.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.WorkerSlots <= 0 {
		c.WorkerSlots = 4
	}
	c.LocalWorkers = mc.Workers(c.LocalWorkers)
	if c.SnapshotEvery <= 0 {
		c.SnapshotEvery = time.Second
	}
	if c.ClientTTL <= 0 {
		c.ClientTTL = 30 * time.Second
	}
	return c
}

// client is one client's identity across reconnects, mirroring the
// worker sessions of the sweep coordinator: conn is nil while
// disconnected, and the session (with its running jobs and buffered
// finals) survives until ClientTTL.
type client struct {
	token    string
	conn     net.Conn // guarded by Server.mu
	writeMu  sync.Mutex
	lastSeen time.Time
	lim      *limiter
	jobs     map[uint64]*servJob
	finals   []*sweep.Final // buffered while disconnected, drained on resume
}

// servJob is one admitted campaign.
type servJob struct {
	id         uint64
	owner      *client
	experiment string
	label      string
	priority   int
	ctx        context.Context
	cancel     context.CancelFunc
	entry      *schedEntry
	done       chan struct{} // closed once terminal

	mu         sync.Mutex
	state      string
	errMsg     string
	cancelled  bool
	stages     map[string]*StageProgress
	stageOrder []string
	snapSeq    uint64
}

// note is the job's exp.ProgressFunc: it folds stage events into the
// snapshot state. Events are serialized per engine run but stages of a
// multi-phase experiment may interleave.
func (j *servJob) note(p exp.Progress) {
	key := p.Experiment
	if p.Stage != "" {
		key = p.Experiment + "/" + p.Stage
	}
	j.mu.Lock()
	sp := j.stages[key]
	if sp == nil {
		sp = &StageProgress{Stage: key}
		j.stages[key] = sp
		j.stageOrder = append(j.stageOrder, key)
	}
	sp.Done, sp.Total = p.Done, p.Total
	j.mu.Unlock()
}

// status snapshots the job into its wire form.
func (j *servJob) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:         j.id,
		Experiment: j.experiment,
		Label:      j.label,
		State:      j.state,
		Priority:   j.priority,
		Error:      j.errMsg,
	}
	for _, key := range j.stageOrder {
		st.Stages = append(st.Stages, *j.stages[key])
	}
	return st
}

func (j *servJob) markCancelled() {
	j.mu.Lock()
	j.cancelled = true
	j.mu.Unlock()
}

// Server is the campaign service. Start one with NewServer; stop it
// with Drain (graceful) or Close (immediate).
type Server struct {
	cfg   Config
	ln    net.Listener
	pool  *sweep.Coordinator
	sched *scheduler

	mu       sync.Mutex
	clients  map[string]*client
	jobs     map[uint64]*servJob
	nextJob  uint64
	draining bool

	done   chan struct{}
	closed sync.Once
	wg     sync.WaitGroup
}

// NewServer starts a campaign server on ln. The embedded coordinator
// shares the listener: a connection's first frame routes it — a worker
// Hello to the shard pool, a ClientHello to the campaign surface.
// Starting a server also switches on the process-wide cross-request
// caches (workload instances; the scheme memo cache is always on), so
// repeat submissions skip dataset and table construction.
func NewServer(ln net.Listener, cfg Config) *Server {
	cfg = cfg.withDefaults()
	scfg := cfg.Sweep
	scfg.AuthToken = cfg.AuthToken
	scfg.LocalWorkers = cfg.LocalWorkers
	if scfg.Logf == nil {
		scfg.Logf = cfg.Logf
	}
	pool := sweep.NewDetachedCoordinator(scfg)
	s := &Server{
		cfg:     cfg,
		ln:      ln,
		pool:    pool,
		clients: map[string]*client{},
		jobs:    map[uint64]*servJob{},
		done:    make(chan struct{}),
	}
	s.sched = newScheduler(func() int {
		return cfg.LocalWorkers + cfg.WorkerSlots*pool.ConnectedWorkers()
	})
	workload.EnableInstanceCache(0)
	s.wg.Add(2)
	go s.acceptLoop()
	go s.janitor()
	return s
}

// Addr is the listener's address (useful with a ":0" listener).
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Workers counts the sweep workers currently connected to the pool.
func (s *Server) Workers() int { return s.pool.ConnectedWorkers() }

// PoolStats returns the embedded coordinator's robustness counters.
func (s *Server) PoolStats() sweep.Stats { return s.pool.Stats() }

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

func clientToken() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("serve: crypto/rand failed: %v", err))
	}
	return hex.EncodeToString(b[:])
}

// Close shuts the server down immediately: running jobs are cancelled,
// connections dropped, the pool closed. Prefer Drain for a graceful
// stop.
func (s *Server) Close() error {
	s.closed.Do(func() {
		close(s.done)
		s.ln.Close()
		s.mu.Lock()
		for _, j := range s.jobs {
			j.cancel()
		}
		conns := make([]net.Conn, 0, len(s.clients))
		for _, cl := range s.clients {
			if cl.conn != nil {
				conns = append(conns, cl.conn)
			}
		}
		s.mu.Unlock()
		for _, conn := range conns {
			conn.Close()
		}
		// Closing the pool drops the worker connections, unblocking the
		// demux goroutines parked in AdmitWorker session loops — they are
		// counted in s.wg, so the pool must die before the Wait below.
		s.pool.Close()
	})
	s.wg.Wait()
	return s.pool.Close()
}

// Drain is the graceful stop: new submissions are rejected from now on,
// running jobs are waited for — ctx bounds the wait; on expiry the
// stragglers are cancelled and their cancellation finals still
// delivered — and the server then shuts down.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	running := make([]*servJob, 0, len(s.jobs))
	for _, j := range s.jobs {
		running = append(running, j)
	}
	s.mu.Unlock()
	s.logf("serve: draining (%d jobs running)", len(running))
	for _, j := range running {
		select {
		case <-j.done:
		case <-ctx.Done():
			s.logf("serve: [job %d] drain deadline reached, cancelling", j.id)
			j.markCancelled()
			j.cancel()
			<-j.done
		}
	}
	return s.Close()
}

// acceptLoop admits connections and demultiplexes by first frame.
func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.done:
				return
			default:
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.demux(conn)
		}()
	}
}

// demux reads the first frame and routes the connection: a worker Hello
// goes to the shard pool (which owns it until it dies), a ClientHello
// to the campaign surface. Anything else is dropped.
func (s *Server) demux(conn net.Conn) {
	t, flags, payload, err := sweep.ReadFrameFlags(conn)
	if err != nil {
		conn.Close()
		return
	}
	msg, err := sweep.DecodeMessage(t, payload)
	if err != nil {
		conn.Close()
		return
	}
	switch hello := msg.(type) {
	case *sweep.Hello:
		s.pool.AdmitWorker(conn, hello, flags)
		s.sched.poke() // the pool just shrank; re-fit the gate
	case *sweep.ClientHello:
		s.handleClient(conn, hello)
	default:
		conn.Close()
	}
}

// sendMsg writes one frame on a client's current connection.
func (s *Server) sendMsg(cl *client, m sweep.Message) error {
	cl.writeMu.Lock()
	defer cl.writeMu.Unlock()
	s.mu.Lock()
	conn := cl.conn
	s.mu.Unlock()
	if conn == nil {
		return errors.New("serve: client disconnected")
	}
	return sweep.WriteMessage(conn, m)
}

// handleClient runs one client connection: auth, session open/resume,
// buffered-final redelivery, then the submit/control message loop.
func (s *Server) handleClient(conn net.Conn, hello *sweep.ClientHello) {
	defer conn.Close()
	if !sweep.AuthEqual(s.cfg.AuthToken, hello.Auth) {
		s.logf("serve: client from %v failed authentication, dropped", conn.RemoteAddr())
		return
	}
	s.mu.Lock()
	cl := s.clients[hello.Token]
	if cl != nil {
		if cl.conn != nil {
			cl.conn.Close()
		}
		cl.conn = conn
		cl.lastSeen = time.Now()
		s.logf("serve: client %s resumed from %v", cl.token, conn.RemoteAddr())
	} else {
		cl = &client{
			token:    clientToken(),
			conn:     conn,
			lastSeen: time.Now(),
			jobs:     map[uint64]*servJob{},
		}
		if s.cfg.ClientInflight > 0 {
			cl.lim = &limiter{cap: s.cfg.ClientInflight}
		}
		s.clients[cl.token] = cl
		s.logf("serve: client %s connected from %v", cl.token, conn.RemoteAddr())
	}
	draining := s.draining
	finals := cl.finals
	cl.finals = nil
	s.mu.Unlock()

	if err := s.sendMsg(cl, &sweep.ClientWelcome{Token: cl.token, Draining: draining}); err != nil {
		s.detachClient(cl, conn)
		return
	}
	for _, f := range finals {
		s.deliverFinal(cl, f)
	}

	for {
		t, payload, err := sweep.ReadFrame(conn)
		if err != nil {
			if err != io.EOF && !errors.Is(err, net.ErrClosed) {
				s.logf("serve: client %s connection dropped: %v", cl.token, err)
			}
			break
		}
		msg, err := sweep.DecodeMessage(t, payload)
		if err != nil {
			s.logf("serve: client %s sent a corrupt frame, rejected: %v", cl.token, err)
			continue
		}
		s.mu.Lock()
		cl.lastSeen = time.Now()
		s.mu.Unlock()
		switch m := msg.(type) {
		case *sweep.Submit:
			s.handleSubmit(cl, m)
		case *sweep.JobControl:
			s.handleControl(cl, m)
		default:
			s.logf("serve: client %s sent unexpected %v frame, ignored", cl.token, t)
		}
	}
	s.detachClient(cl, conn)
}

// detachClient marks a client disconnected if conn is still its current
// connection, leaving the session resumable until ClientTTL.
func (s *Server) detachClient(cl *client, conn net.Conn) {
	s.mu.Lock()
	if cl.conn == conn {
		cl.conn = nil
		cl.lastSeen = time.Now()
	}
	s.mu.Unlock()
}

// handleSubmit admits one campaign (or rejects it: unknown experiment,
// draining server) and answers with a SubmitReply.
func (s *Server) handleSubmit(cl *client, m *sweep.Submit) {
	reply := &sweep.SubmitReply{Ref: m.Ref}
	if _, ok := exp.Lookup(m.Experiment); !ok {
		reply.ErrMsg = (&exp.ErrUnknownExperiment{Name: m.Experiment}).Error()
		s.sendMsg(cl, reply)
		return
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		reply.ErrMsg = "serve: server is draining, not accepting new campaigns"
		s.sendMsg(cl, reply)
		return
	}
	s.nextJob++
	priority := int(m.Priority)
	if priority < 1 {
		priority = 1
	}
	ctx, cancel := context.WithCancel(context.Background())
	j := &servJob{
		id:         s.nextJob,
		owner:      cl,
		experiment: m.Experiment,
		label:      m.Label,
		priority:   priority,
		ctx:        ctx,
		cancel:     cancel,
		entry:      s.sched.admit(priority, cl.lim),
		done:       make(chan struct{}),
		state:      StateRunning,
		stages:     map[string]*StageProgress{},
	}
	s.jobs[j.id] = j
	cl.jobs[j.id] = j
	s.mu.Unlock()
	reply.JobID = j.id
	s.logf("serve: [job %d] admitted: %s for client %s (priority %d, label %q)",
		j.id, j.experiment, cl.token, priority, m.Label)
	s.wg.Add(1)
	go s.runJob(j, m)
	s.sendMsg(cl, reply)
}

// runJob executes one campaign over the shared pool, with every shard
// gated through the fair-share scheduler, and delivers the final.
func (s *Server) runJob(j *servJob, m *sweep.Submit) {
	defer s.wg.Done()
	base := &exp.Runner{
		Workers:  m.Workers,
		Quick:    m.Quick,
		Accum:    m.Accum,
		Bins:     m.Bins,
		Progress: j.note,
	}
	if m.HasSeed {
		seed := m.Seed
		base.Seed = &seed
	}
	if len(m.Params) > 0 {
		base.Params = json.RawMessage(m.Params)
	}
	rc, err := s.pool.DistributedRunner(base)
	if err != nil {
		s.finishJob(j, nil, err)
		return
	}
	inner := rc.Exec
	entry := j.entry
	rc.Exec = func(sj mc.ShardJob) (any, error) {
		if err := s.sched.acquire(sj.Ctx, entry); err != nil {
			return nil, err
		}
		defer s.sched.release(entry)
		return inner(sj)
	}
	stop := make(chan struct{})
	s.wg.Add(1)
	go s.snapshotLoop(j, stop)
	res, err := runCampaign(j.ctx, m.Experiment, rc)
	close(stop)
	s.finishJob(j, res, err)
}

// runCampaign runs one job's campaign, turning a panic on the job's
// goroutine (a hostile param the experiment's checks missed) into that
// job's failure with the stack kept, so one bad submission cannot take
// the server and every tenant's jobs down with it.
func runCampaign(ctx context.Context, name string, r *exp.Runner) (res *exp.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("serve: %s panicked: %v\n%s", name, p, debug.Stack())
		}
	}()
	return exp.Run(ctx, name, r)
}

// snapshotLoop pushes a JobSnapshot to the job's owner every
// SnapshotEvery until the job ends. Pushes to a disconnected client are
// dropped — snapshots are ephemeral by design.
func (s *Server) snapshotLoop(j *servJob, stop chan struct{}) {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.SnapshotEvery)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-s.done:
			return
		case <-t.C:
		}
		st := j.status()
		if st.State != StateRunning {
			return
		}
		snap := JobSnapshot{ID: j.id, State: st.State, Stages: st.Stages}
		data, err := json.Marshal(snap)
		if err != nil {
			continue
		}
		j.mu.Lock()
		j.snapSeq++
		seq := j.snapSeq
		j.mu.Unlock()
		s.sendMsg(j.owner, &sweep.Snapshot{JobID: j.id, Seq: seq, Data: data})
	}
}

// finishJob records a job's terminal state and delivers (or buffers)
// its Final frame.
func (s *Server) finishJob(j *servJob, res *exp.Result, err error) {
	f := &sweep.Final{JobID: j.id}
	state := StateDone
	if err != nil {
		state = StateFailed
		j.mu.Lock()
		if j.cancelled && errors.Is(err, context.Canceled) {
			state = StateCancelled
			err = fmt.Errorf("serve: job cancelled")
		}
		j.mu.Unlock()
		f.ErrMsg = err.Error()
	} else if b, jerr := res.JSON(); jerr != nil {
		state = StateFailed
		f.ErrMsg = fmt.Sprintf("serve: encoding result: %v", jerr)
	} else {
		f.Result = b
	}
	j.mu.Lock()
	j.state = state
	j.errMsg = f.ErrMsg
	j.mu.Unlock()
	j.cancel()
	s.logf("serve: [job %d] %s (%s)", j.id, state, j.experiment)
	// Deliver before signalling done: Drain tears the server down as
	// soon as every job's done channel closes, and the final must be on
	// the wire (or buffered) by then.
	s.deliverFinal(j.owner, f)
	close(j.done)
}

// deliverFinal pushes a Final to the client, buffering it on the
// session for redelivery when the client is disconnected.
func (s *Server) deliverFinal(cl *client, f *sweep.Final) {
	if err := s.sendMsg(cl, f); err != nil {
		s.mu.Lock()
		cl.finals = append(cl.finals, f)
		s.mu.Unlock()
	}
}

// handleControl answers one status/cancel/list verb with a JobInfo.
func (s *Server) handleControl(cl *client, m *sweep.JobControl) {
	info := &sweep.JobInfo{Ref: m.Ref}
	switch m.Verb {
	case sweep.VerbList:
		s.mu.Lock()
		jobs := make([]*servJob, 0, len(s.jobs))
		for _, j := range s.jobs {
			jobs = append(jobs, j)
		}
		s.mu.Unlock()
		sort.Slice(jobs, func(i, k int) bool { return jobs[i].id < jobs[k].id })
		list := make([]JobStatus, len(jobs))
		for i, j := range jobs {
			list[i] = j.status()
		}
		info.Data, _ = json.Marshal(list)
	case sweep.VerbStatus, sweep.VerbCancel:
		s.mu.Lock()
		j := s.jobs[m.JobID]
		s.mu.Unlock()
		if j == nil {
			info.ErrMsg = fmt.Sprintf("serve: unknown job %d", m.JobID)
			break
		}
		if m.Verb == sweep.VerbCancel {
			s.logf("serve: [job %d] cancelled by client %s", j.id, cl.token)
			j.markCancelled()
			j.cancel()
		}
		info.Data, _ = json.Marshal(j.status())
	}
	s.sendMsg(cl, info)
}

// janitor prunes client sessions past their resume window — cancelling
// their unfinished jobs and dropping their buffered finals — and
// periodically re-pumps the scheduler against fresh pool capacity.
func (s *Server) janitor() {
	defer s.wg.Done()
	tick := s.cfg.ClientTTL / 4
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-t.C:
		}
		now := time.Now()
		var orphans []*servJob
		s.mu.Lock()
		for token, cl := range s.clients {
			if cl.conn != nil || now.Sub(cl.lastSeen) <= s.cfg.ClientTTL {
				continue
			}
			delete(s.clients, token)
			s.logf("serve: pruned client %s after %v offline", token, now.Sub(cl.lastSeen))
			for id, j := range cl.jobs {
				delete(s.jobs, id)
				j.mu.Lock()
				running := j.state == StateRunning
				j.mu.Unlock()
				if running {
					orphans = append(orphans, j)
				}
			}
		}
		s.mu.Unlock()
		for _, j := range orphans {
			s.logf("serve: [job %d] owner session pruned, cancelling", j.id)
			j.markCancelled()
			j.cancel()
		}
		s.sched.poke()
	}
}
