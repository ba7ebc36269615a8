// Command faultmem regenerates the paper's evaluation through the public
// experiment registry:
//
//	faultmem list                   # registered experiments
//	faultmem run fig5               # one experiment, text tables
//	faultmem run all -quick -json   # everything, reduced budgets, JSON
//	faultmem fig7                   # sugar for `faultmem run fig7`
//
// Every experiment takes the same flags — -seed, -workers, -quick, -json,
// -csv, -hist/-bins, -params (a JSON override of the experiment's default
// parameter struct), -progress, and -timeout — and every run is
// deterministic: results are bit-identical for any -workers value.
// Ctrl-C (or -timeout) cancels the campaign mid-flight through the
// engine's context plumbing; a second Ctrl-C hard-exits immediately.
//
// Campaigns also run distributed, with identical output:
//
//	faultmem worker -connect host:7715            # on each compute host
//	faultmem coordinate -listen :7715 fig7 -json  # where results land
//
// The coordinator fans an experiment's Monte-Carlo shards out to every
// connected worker, survives worker churn by reassigning expired shards,
// and finishes locally if the pool drains — the emitted Result is
// bit-identical to a single-host `faultmem run` at any worker count.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"time"

	"faultmem"
)

func main() {
	ctx, cancel := context.WithCancel(context.Background())
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt)
	go watchInterrupts(sig, cancel, os.Exit)
	os.Exit(execute(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// watchInterrupts implements the two-stage Ctrl-C contract: the first
// interrupt cancels the campaign context so the run winds down through
// the engine's context plumbing (and the process exits through the normal
// error path); a second interrupt means "now" and hard-exits with the
// conventional 128+SIGINT code.
func watchInterrupts(sig <-chan os.Signal, cancel context.CancelFunc, exit func(int)) {
	<-sig
	cancel()
	<-sig
	exit(130)
}

// execute is the testable entry point: it returns the process exit code
// instead of calling os.Exit.
func execute(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "-h", "--help", "help":
		usage(stdout)
		return 0
	case "list":
		return listCmd(rest, stdout, stderr)
	case "run":
		if len(rest) == 0 || strings.HasPrefix(rest[0], "-") {
			fmt.Fprintf(stderr, "faultmem run: missing experiment name\n\n")
			printExperiments(stderr)
			return 2
		}
		return runExperiment(ctx, rest[0], rest[1:], stdout, stderr)
	case "coordinate":
		return coordinate(ctx, rest, stdout, stderr)
	case "worker":
		return workerCmd(ctx, rest, stderr)
	case "serve":
		return serveCmd(ctx, rest, stderr)
	case "submit":
		return submitCmd(ctx, rest, stdout, stderr)
	case "status":
		return statusCmd(ctx, rest, stdout, stderr)
	case "cancel":
		return cancelCmd(ctx, rest, stdout, stderr)
	default:
		if strings.HasPrefix(cmd, "-") {
			fmt.Fprintf(stderr, "faultmem: unknown flag %q before a command\n\n", cmd)
			usage(stderr)
			return 2
		}
		// Sugar: `faultmem fig5` runs the registered experiment directly.
		return runExperiment(ctx, cmd, rest, stdout, stderr)
	}
}

func usage(w io.Writer) {
	fmt.Fprint(w, `faultmem - regenerate the DAC'15 bit-shuffling paper's evaluation

usage: faultmem <command> [flags]

commands:
  run <name|all>  run one registered experiment (or all, in paper order)
  coordinate      run an experiment on a pool of remote workers
  worker          compute shards for a remote coordinator or campaign server
  serve           run the long-lived multi-client campaign server
  submit          submit a campaign to a server and stream its result
  status          show one server job (or list all with no job ID)
  cancel          cancel one running server job
  list            list the experiment registry (-json for machine-readable)
  <name>          shorthand for 'run <name>'

run flags:
  -json           emit the machine-readable Result JSON
  -csv            emit CSV tables instead of aligned text
  -seed N         override the experiment's base seed
  -workers N      Monte-Carlo worker goroutines (0 = all cores; results
                  are bit-identical for any value)
  -quick          reduced smoke budgets
  -hist MODE      CDF accumulator: auto|exact|hist
  -bins N         log-histogram bin count (0 = default)
  -params JSON    override the experiment's default params (JSON object
                  merged over the defaults; not valid with 'all')
  -progress       report shard completions on stderr
  -timeout D      cancel the campaign after duration D (e.g. 90s)

coordinate flags (before the experiment name; run flags after it):
  -listen ADDR    TCP address workers dial (default 127.0.0.1:7715)
  -min-workers N  workers to await before starting (default 1)
  -wait D         how long to await them before starting anyway (default 1m)
  -lease D        shard lease before reassignment (0 = default)
  -session-ttl D  resume window for disconnected workers (0 = default)
  -auth-token S   shared secret required from workers (default $FAULTMEM_AUTH_TOKEN)
  -verbose        log worker churn and shard reassignment on stderr

worker flags:
  -connect ADDR   coordinator address to dial (default 127.0.0.1:7715)
  -auth-token S   shared secret for the pool (default $FAULTMEM_AUTH_TOKEN)
  -heartbeat D    liveness heartbeat cadence (0 = default)
  -workers N      concurrent shard computations (0 = all cores)
  -verbose        log transport events on stderr

serve flags:
  -listen ADDR        TCP address for workers and clients (default 127.0.0.1:7715)
  -auth-token S       shared secret required from every connection
  -worker-slots N     scheduler tickets per connected worker (default 4)
  -local-workers N    local shard capacity floor (0 = all cores)
  -client-inflight N  per-client concurrent shard cap (0 = uncapped)
  -snapshot-every D   partial-result push period (default 1s)
  -client-ttl D       client session resume window (default 30s)
  -drain-timeout D    drain wait bound on SIGTERM/Ctrl-C (default 1m)
  -verbose            log job lifecycle and churn on stderr

submit flags (the run flags above, plus):
  -connect ADDR   campaign server to dial (default 127.0.0.1:7715)
  -auth-token S   shared secret for the server (default $FAULTMEM_AUTH_TOKEN)
  -token S        resume a previous session (jobs re-attach, finals redeliver)
  -label S        free-form annotation echoed in status listings
  -priority N     fair-share weight (higher = more concurrent shards)
  -detach         print the job ID and exit instead of waiting

status/cancel flags:
  -connect, -auth-token, -token as for submit; -json for JSON output
  'status' with no job ID lists every job the server knows

`)
	printExperiments(w)
}

func printExperiments(w io.Writer) {
	fmt.Fprintln(w, "experiments:")
	for _, name := range faultmem.Experiments() {
		desc, _ := faultmem.DescribeExperiment(name)
		fmt.Fprintf(w, "  %-18s %s\n", name, desc)
	}
}

// campaignExecutor abstracts where a campaign's shards compute: the local
// engine (runExperiment) or a coordinator's worker pool (coordinate).
// *faultmem.SweepCoordinator satisfies it directly.
type campaignExecutor interface {
	Run(ctx context.Context, name string, r *faultmem.Runner) (*faultmem.ExperimentResult, error)
	RunAll(ctx context.Context, r *faultmem.Runner, emit func(*faultmem.ExperimentResult) error) error
}

// localExecutor computes everything in-process.
type localExecutor struct{}

func (localExecutor) Run(ctx context.Context, name string, r *faultmem.Runner) (*faultmem.ExperimentResult, error) {
	return faultmem.RunExperiment(ctx, name, r)
}

func (localExecutor) RunAll(ctx context.Context, r *faultmem.Runner, emit func(*faultmem.ExperimentResult) error) error {
	return faultmem.RunAllExperiments(ctx, r, emit)
}

func runExperiment(ctx context.Context, name string, args []string, stdout, stderr io.Writer) int {
	return runCampaign(ctx, localExecutor{}, "", name, args, stdout, stderr)
}

// runCampaign parses the shared run flags, executes name (or "all") on
// exec, and renders the results. cmdName prefixes error messages when the
// campaign was launched by a subcommand other than run.
func runCampaign(ctx context.Context, exec campaignExecutor, cmdName, name string, args []string, stdout, stderr io.Writer) int {
	label := name
	if cmdName != "" {
		label = cmdName + " " + name
	}
	fs := flag.NewFlagSet("faultmem "+label, flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit the Result JSON")
	csvOut := fs.Bool("csv", false, "emit CSV tables")
	seed := fs.Int64("seed", 0, "override the experiment's base seed")
	workers := fs.Int("workers", 0, "Monte-Carlo worker goroutines (0 = all cores)")
	quick := fs.Bool("quick", false, "reduced smoke budgets")
	hist := fs.String("hist", "auto", "CDF accumulator: auto|exact|hist")
	bins := fs.Int("bins", 0, "log-histogram bin count (0 = default)")
	paramsJSON := fs.String("params", "", "JSON override of the experiment's default params")
	progress := fs.Bool("progress", false, "report shard completions on stderr")
	timeout := fs.Duration("timeout", 0, "cancel the campaign after this duration (0 = none)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if name != "all" {
		if _, ok := faultmem.LookupExperiment(name); !ok {
			fmt.Fprintf(stderr, "faultmem: unknown experiment %q\n\n", name)
			printExperiments(stderr)
			return 2
		}
	}

	mode, err := faultmem.ParseAccumMode(*hist)
	if err != nil {
		fmt.Fprintf(stderr, "faultmem: %v\n", err)
		return 2
	}
	r := &faultmem.Runner{
		Workers: *workers,
		Accum:   mode,
		Bins:    *bins,
		Quick:   *quick,
	}
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			r.Seed = seed
		}
	})
	if *paramsJSON != "" {
		if name == "all" {
			fmt.Fprintln(stderr, "faultmem: -params cannot apply to 'run all'")
			return 2
		}
		r.Params = json.RawMessage(*paramsJSON)
	}
	if *progress {
		r.Progress = func(p faultmem.ExperimentProgress) {
			stage := p.Stage
			if stage != "" {
				stage = " " + stage
			}
			fmt.Fprintf(stderr, "\r%s%s %d/%d", p.Experiment, stage, p.Done, p.Total)
			if p.Done == p.Total {
				fmt.Fprintln(stderr)
			}
		}
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var results []*faultmem.ExperimentResult
	emit := func(res *faultmem.ExperimentResult) error {
		if *jsonOut {
			results = append(results, res)
			return nil
		}
		if name == "all" {
			fmt.Fprintf(stdout, "############ %s ############\n\n", res.Experiment)
		}
		var rerr error
		if *csvOut {
			rerr = res.RenderCSV(stdout, true)
		} else {
			rerr = res.Render(stdout)
		}
		if rerr != nil {
			return rerr
		}
		_, rerr = fmt.Fprintln(stdout)
		return rerr
	}

	if name == "all" {
		err = exec.RunAll(ctx, r, emit)
	} else {
		var res *faultmem.ExperimentResult
		if res, err = exec.Run(ctx, name, r); err == nil {
			err = emit(res)
		}
	}

	// `run all` keeps going past failing experiments and reports the
	// collected failures at the end; everything that succeeded still
	// renders, and only real failures make the exit code non-zero.
	var allErr *faultmem.RunAllError
	partial := errors.As(err, &allErr)
	if err != nil && !partial {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintf(stderr, "faultmem %s: cancelled: %v\n", label, err)
		} else {
			fmt.Fprintf(stderr, "faultmem %s: %v\n", label, err)
		}
		return 1
	}
	if *jsonOut {
		var out []byte
		var merr error
		if name == "all" {
			out, merr = json.MarshalIndent(results, "", "  ")
		} else {
			out, merr = results[0].JSON()
		}
		if merr != nil {
			fmt.Fprintf(stderr, "faultmem %s: %v\n", label, merr)
			return 1
		}
		if _, err := fmt.Fprintf(stdout, "%s\n", out); err != nil {
			fmt.Fprintf(stderr, "faultmem %s: %v\n", label, err)
			return 1
		}
	}
	if partial {
		fmt.Fprintf(stderr, "faultmem %s: %d of %d experiments failed:\n",
			label, len(allErr.Failures), len(faultmem.Experiments()))
		for _, f := range allErr.Failures {
			fmt.Fprintf(stderr, "  %s: %v\n", f.Name, f.Err)
		}
		return 1
	}
	return 0
}

// coordinate runs an experiment with its engine shards fanned out to a
// pool of `faultmem worker` processes. Coordinator flags come before the
// experiment name, run flags after it:
//
//	faultmem coordinate -listen :7715 -min-workers 2 fig5 -quick -json
func coordinate(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("faultmem coordinate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	listen := fs.String("listen", "127.0.0.1:7715", "TCP address to accept workers on")
	minWorkers := fs.Int("min-workers", 1, "workers to await before starting (0 = start immediately)")
	wait := fs.Duration("wait", time.Minute, "how long to await -min-workers before starting anyway")
	lease := fs.Duration("lease", 0, "shard lease before reassignment (0 = default)")
	sessionTTL := fs.Duration("session-ttl", 0, "resume window for disconnected workers (0 = default)")
	authToken := fs.String("auth-token", os.Getenv(authTokenEnv),
		"shared secret required from workers (default $"+authTokenEnv+")")
	verbose := fs.Bool("verbose", false, "log worker churn and shard reassignment on stderr")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	rest := fs.Args()
	if len(rest) == 0 {
		fmt.Fprintf(stderr, "faultmem coordinate: missing experiment name\n\n")
		printExperiments(stderr)
		return 2
	}
	name, runArgs := rest[0], rest[1:]
	// Reject unknown names before binding the port and awaiting workers —
	// a typo should not sit through the -wait window first.
	if name != "all" {
		if _, ok := faultmem.LookupExperiment(name); !ok {
			fmt.Fprintf(stderr, "faultmem: unknown experiment %q\n\n", name)
			printExperiments(stderr)
			return 2
		}
	}

	cfg := faultmem.SweepConfig{Lease: *lease, SessionTTL: *sessionTTL, AuthToken: *authToken}
	if *verbose {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(stderr, "faultmem coordinate: "+format+"\n", args...)
		}
	}
	c, err := faultmem.ListenSweep(*listen, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "faultmem coordinate: %v\n", err)
		return 1
	}
	defer c.Close()
	fmt.Fprintf(stderr, "faultmem coordinate: listening on %s\n", c.Addr())

	if *minWorkers > 0 {
		wctx := ctx
		if *wait > 0 {
			var cancel context.CancelFunc
			wctx, cancel = context.WithTimeout(ctx, *wait)
			defer cancel()
		}
		if werr := c.AwaitWorkers(wctx, *minWorkers); werr != nil {
			if ctx.Err() != nil {
				fmt.Fprintf(stderr, "faultmem coordinate: cancelled: %v\n", ctx.Err())
				return 1
			}
			// Degrade instead of dying: a short pool still computes, and
			// missing capacity falls back to local shards.
			fmt.Fprintf(stderr, "faultmem coordinate: pool short after %v (want %d workers); starting anyway\n",
				*wait, *minWorkers)
		}
	}

	code := runCampaign(ctx, c, "coordinate", name, runArgs, stdout, stderr)
	st := c.Stats()
	fmt.Fprintf(stderr,
		"faultmem coordinate: %d shards remote, %d local, %d reassigned, %d duplicate results, %d frames rejected, %d sessions resumed\n",
		st.RemoteShards, st.LocalShards, st.Reassigned, st.DuplicateResults, st.FramesRejected, st.SessionsResumed)
	return code
}

// workerCmd joins a coordinator's pool and computes shards until the
// coordinator finishes the sweep or the context dies.
func workerCmd(ctx context.Context, args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("faultmem worker", flag.ContinueOnError)
	fs.SetOutput(stderr)
	connect := fs.String("connect", "127.0.0.1:7715", "coordinator address to dial")
	authToken := fs.String("auth-token", os.Getenv(authTokenEnv),
		"shared secret for the pool (default $"+authTokenEnv+")")
	heartbeat := fs.Duration("heartbeat", 0, "liveness heartbeat cadence (0 = default)")
	workers := fs.Int("workers", 0, "concurrent shard computations (0 = all cores)")
	verbose := fs.Bool("verbose", false, "log transport events on stderr")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "faultmem worker: unexpected argument %q\n", fs.Arg(0))
		return 2
	}

	var stats faultmem.SweepWorkerStats
	cfg := faultmem.SweepWorkerConfig{Heartbeat: *heartbeat, LocalWorkers: *workers, AuthToken: *authToken, Stats: &stats}
	if *verbose {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(stderr, "faultmem worker: "+format+"\n", args...)
		}
	}
	if err := faultmem.RunSweepWorker(ctx, *connect, cfg); err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintf(stderr, "faultmem worker: cancelled: %v\n", err)
		} else {
			fmt.Fprintf(stderr, "faultmem worker: %v\n", err)
		}
		return 1
	}
	fmt.Fprintf(stderr, "faultmem worker: sweep complete (%d shards computed, %d refused)\n",
		stats.Computed.Load(), stats.Refused.Load())
	return 0
}
