package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"strings"
	"time"

	"faultmem/internal/exp"
	"faultmem/internal/stats"
	"faultmem/internal/workload"
)

// benchWorkers is the engine parallelism of every campaign: the 2-core
// box the benchmark is sized for.
const benchWorkers = 2

// setupReps is how many times a run repeats its set-up; setup_s is the
// median. The fig5 set-up takes microseconds, so it repeats more.
const (
	setupReps     = 3
	fig5SetupReps = 101
)

// another reports whether a closed loop that started at start and has
// completed the given campaigns issues one more: always the first, then
// only while the next is predicted (by the median so far) to finish
// within the run time, so a run ends close to its measured window.
func another(start time.Time, secs float64, done []time.Duration) bool {
	return len(done) == 0 || time.Since(start).Seconds()+median(seconds(done)) <= secs
}

// localWorkload is one campaign run in-process through the public
// campaign API (exp.Run), one caller in a closed loop.
type localWorkload struct {
	name       string
	experiment string
	// params is the JSON override merged over the experiment defaults.
	params string
	// instances are the workloads the campaign prepares; set-up
	// prepares each once into the instance cache so timed campaigns pay
	// only trial work. Empty for fig5, which prepares no instance.
	instances []string
	// trials is the Monte-Carlo trial budget of a trial campaign (0 for
	// fig5).
	trials int
	// diesPer is the Monte-Carlo die count of one campaign (0: read the
	// sample count from the fig5 result).
	diesPer int
}

// Trial budgets. Both are below the campaign defaults so a run holds
// enough campaigns (about 10 to 15) for a steady median on a shared
// 2-core box.
const (
	mlTrialsBudget       = 20
	recoveryTrialsBudget = 100
)

var (
	yieldCDF = &localWorkload{
		name:       "yield-cdf",
		experiment: "fig5",
		params:     `{"CDF":{"Trun":1e7,"MaxPerCount":0}}`,
	}
	mlTrials = &localWorkload{
		name:       "ml-trials",
		experiment: "workloads",
		params:     fmt.Sprintf(`{"Trials":%d}`, mlTrialsBudget),
		instances:  workload.Names(),
		trials:     mlTrialsBudget,
		diesPer:    mlTrialsBudget * len(workload.Names()),
	}
	recoveryChecked = &localWorkload{
		name:       "recovery-checked",
		experiment: "recovery",
		params:     fmt.Sprintf(`{"Trials":%d}`, recoveryTrialsBudget),
		instances:  []string{"cgsolve"},
		trials:     recoveryTrialsBudget,
		// Every policy scores the same dies (common random numbers).
		diesPer: recoveryTrialsBudget,
	}
)

// runner is the campaign environment of every timed campaign.
func (lw *localWorkload) runner(seed int64) *exp.Runner {
	return &exp.Runner{Workers: benchWorkers, Seed: &seed, Params: json.RawMessage(lw.params)}
}

// setup prepares what the campaign needs before the first timed issue
// and returns the duration of each repetition: setupReps cold prepares
// of every instance (the last one's cache serves the timed loop), or
// for fig5 its params, schemes and failure-count prior.
func (lw *localWorkload) setup(seed int64) ([]time.Duration, error) {
	if len(lw.instances) == 0 {
		return lw.setupFig5(seed)
	}
	var reps []time.Duration
	for rep := 0; rep < setupReps; rep++ {
		d, _, err := lw.prepare(seed)
		if err != nil {
			return nil, err
		}
		reps = append(reps, d)
	}
	return reps, nil
}

// prepare is one set-up of an instance workload: every instance the
// campaign uses is prepared cold into a fresh instance cache, which then
// serves the campaign. perApp is each instance's prepare time in
// seconds.
func (lw *localWorkload) prepare(seed int64) (d time.Duration, perApp map[string]float64, err error) {
	workload.DisableInstanceCache()
	workload.EnableInstanceCache(0)
	perApp = map[string]float64{}
	t0 := time.Now()
	for _, n := range lw.instances {
		a := time.Now()
		id, err := workload.Parse(n)
		if err != nil {
			return 0, nil, err
		}
		if _, err := workload.PrepareShared(id, workload.Params{Seed: seed}); err != nil {
			return 0, nil, fmt.Errorf("prepare %v: %w", id, err)
		}
		perApp[n] = time.Since(a).Seconds()
	}
	return time.Since(t0), perApp, nil
}

// setupFig5 times the inputs of the fig5 campaign: resolving its
// params over the defaults, building the seven arms' schemes, and the
// Eq. (4) failure-count prior the sample budget is laid out on.
func (lw *localWorkload) setupFig5(seed int64) ([]time.Duration, error) {
	e, ok := exp.Lookup(lw.experiment)
	if !ok {
		return nil, fmt.Errorf("experiment %q not registered", lw.experiment)
	}
	var out []time.Duration
	for rep := 0; rep < fig5SetupReps; rep++ {
		t0 := time.Now()
		p, ok := e.DefaultParams().(exp.Fig5Params)
		if !ok {
			return nil, fmt.Errorf("fig5 default params are %T", e.DefaultParams())
		}
		if err := json.Unmarshal([]byte(lw.params), &p); err != nil {
			return nil, err
		}
		p.CDF.Seed = seed
		for _, a := range exp.Fig5Arms() {
			_ = a.YieldScheme()
		}
		cells := p.CDF.Rows * p.CDF.Width
		nmax := stats.BinomialQuantile(cells, p.CDF.Pcell, 0.9999)
		mass := 0.0
		for n := 1; n <= nmax; n++ {
			mass += stats.BinomialPMF(cells, p.CDF.Pcell, n)
		}
		out = append(out, time.Since(t0))
		if mass <= 0 {
			return nil, fmt.Errorf("fig5 prior has no mass at Pcell %g", p.CDF.Pcell)
		}
	}
	return out, nil
}

// dies returns the Monte-Carlo die count of one campaign result.
func (lw *localWorkload) dies(res *exp.Result) (int, error) {
	if lw.diesPer > 0 {
		return lw.diesPer, nil
	}
	t := findTable(res, "Fig. 5 - CDF")
	if t == nil {
		return 0, fmt.Errorf("fig5 result has no CDF table")
	}
	for _, n := range t.Notes {
		var samples int
		if _, err := fmt.Sscanf(n, "Monte-Carlo samples per arm: %d", &samples); err == nil {
			return samples, nil
		}
	}
	return 0, fmt.Errorf("fig5 CDF table notes carry no sample count")
}

// campaign issues one campaign and checks its result.
func (lw *localWorkload) campaign(ctx context.Context, r *exp.Runner, want map[string]bound) (*exp.Result, time.Duration, error) {
	t0 := time.Now()
	res, err := exp.Run(ctx, lw.experiment, r)
	d := time.Since(t0)
	if err != nil {
		return nil, d, err
	}
	got, err := headlines(res)
	if err != nil {
		return nil, d, err
	}
	return res, d, checkHeadlines(got, want)
}

// run is the untraced measurement: set-up, then campaigns back to back
// until the run time is spent.
func (lw *localWorkload) run(ctx context.Context, o options, w io.Writer) (*report, error) {
	refs, err := references()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	setups, err := lw.setup(o.seed)
	if err != nil {
		return setupFailed(w, err, time.Since(t0)), nil
	}
	// Return the set-up's garbage (three cold prepares) to the OS, so
	// the timed loop's resident memory is the campaign's own rather than
	// whatever heap size the set-up happened to leave behind.
	debug.FreeOSMemory()

	rep := &report{}
	var times []time.Duration
	dies := 0
	rss := sampleRSS([]int{os.Getpid()}, rssPeriod)
	start := time.Now()
	for another(start, o.seconds, times) {
		_, missesBefore := workload.InstanceCacheStats()
		res, d, err := lw.campaign(ctx, lw.runner(o.seed), refs[lw.name])
		if _, misses := workload.InstanceCacheStats(); err == nil && misses != missesBefore {
			err = fmt.Errorf("the campaign prepared %d instances outside set-up", misses-missesBefore)
		}
		rep.Attempted++
		times = append(times, d)
		if err == nil {
			var n int
			n, err = lw.dies(res)
			dies += n
		}
		status := "ok"
		if err != nil {
			rep.Failed++
			status = "FAILED: " + err.Error()
		}
		fmt.Fprintf(w, "campaign %d: %.4f s %s\n", rep.Attempted, d.Seconds(), status)
	}
	wall := time.Since(start)
	samples, err := rss.finish()
	if err != nil {
		return nil, fmt.Errorf("sampling RSS: %w", err)
	}
	printTimes(w, "set-up", setups)
	printTimes(w, "campaign", times)
	endToEnd(rep, setups, times, dies, wall, uint64(percentile(samples, 90)))
	fmt.Fprintf(w, "dies %d in %.3f s\n", dies, wall.Seconds())
	return rep, nil
}

// printTimes writes the count, quartiles and maximum of a duration
// sample.
func printTimes(w io.Writer, what string, ds []time.Duration) {
	xs := seconds(ds)
	q1, q2, q3 := quartiles(xs)
	fmt.Fprintf(w, "%s: n=%d p25=%.6f p50=%.6f p75=%.6f max=%.6f s\n",
		what, len(xs), q1, q2, q3, percentile(xs, 100))
}

// stageName shortens an engine tag ("workloads/pca") to its stage.
func stageName(tag string) string {
	if _, s, ok := strings.Cut(tag, "/"); ok {
		return s
	}
	return tag
}
