package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"os/exec"
	"regexp"
	"strconv"
	"sync"
	"syscall"
	"time"

	"faultmem/internal/exp"
	"faultmem/internal/serve"
)

// The served-remote workload: the ml-trials campaign spec at the -quick
// trial budget, submitted over one client connection with two campaigns
// in flight to a `faultmem serve` child process that has one
// `faultmem worker` child process attached, so every shard runs
// remotely. Each final must be byte-identical to a local run of the
// same spec computed in set-up.

// servedInflight is how many campaigns the one client keeps in flight.
const servedInflight = 2

// servedSpec is the campaign every served-remote submission carries.
func servedSpec(seed int64) serve.Campaign {
	return serve.Campaign{Experiment: "workloads", Quick: true, Workers: benchWorkers, Seed: &seed}
}

// servedDies is the Monte-Carlo die count of one served campaign: the
// quick trial budget for every registered workload.
func servedDies() int { return exp.QuickWorkloadsTrials * len(mlTrials.instances) }

// localReference computes the local result bytes a served final must
// equal.
func localReference(ctx context.Context, spec serve.Campaign) ([]byte, error) {
	res, err := exp.Run(ctx, spec.Experiment, &exp.Runner{Workers: spec.Workers, Quick: spec.Quick, Seed: spec.Seed})
	if err != nil {
		return nil, err
	}
	return res.JSON()
}

// child is one started CLI process whose standard error is collected
// line by line.
type child struct {
	cmd   *exec.Cmd
	lines chan string // every stderr line, closed at EOF
	done  chan struct{}

	mu  sync.Mutex
	log []string
}

// startChild launches the faultmem CLI with args.
func startChild(path string, args ...string) (*child, error) {
	cmd := exec.Command(path, args...)
	// The child dies with the benchmark even if the benchmark is killed
	// before it can stop it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s %s: %w", path, args[0], err)
	}
	c := &child{cmd: cmd, lines: make(chan string, 1024), done: make(chan struct{})}
	go func() {
		defer close(c.done)
		defer close(c.lines)
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			c.mu.Lock()
			c.log = append(c.log, line)
			c.mu.Unlock()
			select {
			case c.lines <- line:
			default: // nobody is waiting for lines any more
			}
		}
	}()
	return c, nil
}

// waitLine returns the first submatch of the first stderr line matching
// re, or an error when the process ends or the timeout passes first.
func (c *child) waitLine(re *regexp.Regexp, timeout time.Duration) (string, error) {
	t := time.NewTimer(timeout)
	defer t.Stop()
	for {
		select {
		case line, ok := <-c.lines:
			if !ok {
				return "", fmt.Errorf("process exited before printing %q", re)
			}
			if m := re.FindStringSubmatch(line); m != nil {
				return m[len(m)-1], nil
			}
		case <-t.C:
			return "", fmt.Errorf("no %q line within %v", re, timeout)
		}
	}
}

// stop signals the process, waits for it to exit (killing it after the
// grace period) and returns its stderr log.
func (c *child) stop(sig syscall.Signal, grace time.Duration) []string {
	if sig != 0 {
		_ = c.cmd.Process.Signal(sig) // the process may already have exited
	}
	select {
	case <-c.done:
	case <-time.After(grace):
		_ = c.cmd.Process.Kill() // escalate; Wait below reaps it either way
		<-c.done
	}
	_ = c.cmd.Wait() // the exit status is judged from the log, not the code
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.log...)
}

var (
	listenLine = regexp.MustCompile(`faultmem serve: listening on (\S+)`)
	joinLine   = regexp.MustCompile(`sweep: session \S+ opened from`)
	drainLine  = regexp.MustCompile(`faultmem serve: stopped \((\d+) shards remote, (\d+) local, (\d+) reassigned\)`)
)

// pool is a running server with one attached worker.
type pool struct {
	server, worker *child
	addr           string

	stopOnce sync.Once
	drained  drainStats
}

// startPool launches `faultmem serve` and one `faultmem worker` and
// waits until the worker has joined; the returned duration is that
// set-up time.
func startPool(faultmem string) (*pool, time.Duration, error) {
	t0 := time.Now()
	srv, err := startChild(faultmem, "serve", "-listen", "127.0.0.1:0", "-verbose", "-snapshot-every", "25ms")
	if err != nil {
		return nil, 0, err
	}
	addr, err := srv.waitLine(listenLine, 30*time.Second)
	if err != nil {
		srv.stop(syscall.SIGKILL, time.Second)
		return nil, 0, fmt.Errorf("serve: %w", err)
	}
	wrk, err := startChild(faultmem, "worker", "-connect", addr)
	if err != nil {
		srv.stop(syscall.SIGKILL, time.Second)
		return nil, 0, err
	}
	p := &pool{server: srv, worker: wrk, addr: addr}
	if _, err := srv.waitLine(joinLine, 30*time.Second); err != nil {
		p.stop()
		return nil, 0, fmt.Errorf("worker join: %w", err)
	}
	return p, time.Since(t0), nil
}

// drainStats are the counters of the server's stop line.
type drainStats struct {
	Remote, Local, Reassigned int
	Found                     bool
}

// parseDrain finds the server's "stopped (N shards remote, M local, R
// reassigned)" line in its stderr log.
func parseDrain(log []string) drainStats {
	for _, line := range log {
		if m := drainLine.FindStringSubmatch(line); m != nil {
			r, _ := strconv.Atoi(m[1]) // \d+ always parses
			l, _ := strconv.Atoi(m[2])
			re, _ := strconv.Atoi(m[3])
			return drainStats{Remote: r, Local: l, Reassigned: re, Found: true}
		}
	}
	return drainStats{}
}

// sampleRSS starts sampling the summed resident memory of the server
// and the worker.
func (p *pool) sampleRSS() *rssSampler {
	return sampleRSS([]int{p.server.cmd.Process.Pid, p.worker.cmd.Process.Pid}, rssPeriod)
}

// stop drains the server (the worker exits when the server closes its
// pool) and returns the drain counters.
func (p *pool) stop() drainStats {
	p.stopOnce.Do(func() {
		log := p.server.stop(syscall.SIGTERM, 30*time.Second)
		p.worker.stop(0, 10*time.Second)
		p.drained = parseDrain(log)
	})
	return p.drained
}

// jobRun is one served campaign as the client saw it.
type jobRun struct {
	id        uint64
	submit    time.Time // Submit called
	admitted  time.Time // SubmitReply received
	final     time.Time // Final received
	err       error
	resultLen int
}

func (j jobRun) campaign() time.Duration { return j.final.Sub(j.submit) }

// servedLoop keeps inflight campaigns of spec in flight on one client
// connection — a closed loop: each final triggers the next submission
// until the run time is spent — and checks every final against want.
func servedLoop(ctx context.Context, c *serve.Client, spec serve.Campaign, inflight int, seconds float64, want []byte) ([]jobRun, time.Duration) {
	results := make(chan jobRun)
	submit := func() {
		j := jobRun{submit: time.Now()}
		id, err := c.Submit(ctx, spec)
		j.admitted, j.id = time.Now(), id
		if err != nil {
			j.err, j.final = err, j.admitted
			go func() { results <- j }()
			return
		}
		go func() {
			f, err := c.Wait(ctx, id)
			j.final = time.Now()
			switch {
			case err != nil:
				j.err = err
			case f.Err != "":
				j.err = fmt.Errorf("server: %s", f.Err)
			case !bytes.Equal(f.Result, want):
				j.err = fmt.Errorf("final of job %d (%d bytes) differs from the local run (%d bytes)", id, len(f.Result), len(want))
			}
			if err == nil {
				j.resultLen = len(f.Result)
			}
			results <- j
		}()
	}
	start := time.Now()
	for i := 0; i < inflight; i++ {
		submit()
	}
	var runs []jobRun
	for outstanding := inflight; outstanding > 0; outstanding-- {
		j := <-results
		runs = append(runs, j)
		// Campaigns in flight overlap, so a submission is allowed until
		// the run time is spent (the run then ends about one campaign
		// later) rather than predicted to finish within it.
		if j.err == nil && time.Since(start).Seconds() < seconds {
			submit()
			outstanding++
		}
	}
	return runs, time.Since(start)
}

// servedSetup starts setupReps pools, keeping the last one running, and
// returns it with every set-up time.
func servedSetup(faultmem string) (*pool, []time.Duration, error) {
	var setups []time.Duration
	var p *pool
	for rep := 0; rep < setupReps; rep++ {
		if p != nil {
			p.stop()
		}
		var d time.Duration
		var err error
		p, d, err = startPool(faultmem)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, d)
	}
	return p, setups, nil
}

// runServed is the untraced served-remote measurement.
func runServed(ctx context.Context, o options, w io.Writer) (*report, error) {
	if o.faultmem == "" {
		return nil, fmt.Errorf("served-remote needs -faultmem")
	}
	spec := servedSpec(o.seed)
	t0 := time.Now()
	want, err := localReference(ctx, spec)
	if err != nil {
		return setupFailed(w, fmt.Errorf("local reference: %w", err), time.Since(t0)), nil
	}
	p, setups, err := servedSetup(o.faultmem)
	if err != nil {
		return setupFailed(w, err, time.Since(t0)), nil
	}
	defer p.stop()
	rctx, cancel := context.WithTimeout(ctx, time.Duration(o.seconds*float64(time.Second))+120*time.Second)
	defer cancel()
	c, err := serve.Dial(rctx, p.addr, serve.Options{})
	if err != nil {
		return nil, err
	}
	defer c.Close()

	sampler := p.sampleRSS()
	runs, wall := servedLoop(rctx, c, spec, servedInflight, o.seconds, want)
	rss, err := sampler.finish()
	if err != nil {
		return nil, fmt.Errorf("sampling server/worker RSS: %w", err)
	}
	c.Close()
	ds := p.stop()

	rep := &report{Attempted: len(runs)}
	var times []time.Duration
	dies := 0
	for i, j := range runs {
		times = append(times, j.campaign())
		status := "ok, byte-identical to the local run"
		if j.err != nil {
			rep.Failed++
			status = "FAILED: " + j.err.Error()
		} else {
			dies += servedDies()
		}
		fmt.Fprintf(w, "campaign %d (job %d): %.4f s %s\n", i+1, j.id, j.campaign().Seconds(), status)
	}
	if !ds.Found || ds.Local != 0 {
		// Every shard must run on the worker; a local shard means the
		// workload silently measured something else.
		rep.Failed = rep.Attempted
		fmt.Fprintf(w, "FAILED: server drain line %+v: want every shard remote\n", ds)
	}
	fmt.Fprintf(w, "server drain: %d shards remote, %d local, %d reassigned\n", ds.Remote, ds.Local, ds.Reassigned)
	printTimes(w, "set-up", setups)
	printTimes(w, "campaign", times)
	endToEnd(rep, setups, times, dies, wall, uint64(percentile(rss, 90)))
	fmt.Fprintf(w, "dies %d in %.3f s\n", dies, wall.Seconds())
	return rep, nil
}
