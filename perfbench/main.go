// Command perfbench is the repository benchmark. It runs one named
// campaign workload as a single closed-loop caller (the next campaign is
// issued only after the previous result arrives), checks every result,
// and prints the end-to-end metrics — or, with -trace 1, the per-layer
// metrics of a separate traced run — as the last line of standard
// output:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}
//
// Run it through run.sh, which builds this program and the faultmem CLI
// from the surrounding checkout:
//
//	bash perfbench/run.sh --workload ml-trials --seed 1 --seconds 20 --trace 0
//
// README.md in this directory records why each workload was chosen and
// which per-layer metric should move which end-to-end metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// set records one metric.
func (r *report) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// options are the command-line settings every workload receives.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	faultmem string // path of the built faultmem CLI (served-remote)
	out      string // directory for the trace file
}

// workloadDef is one named benchmark workload.
type workloadDef struct {
	name  string
	run   func(ctx context.Context, o options, w io.Writer) (*report, error)
	trace func(ctx context.Context, o options, w io.Writer) (*report, error)
}

func workloads() []workloadDef {
	return []workloadDef{
		{name: "yield-cdf", run: yieldCDF.run, trace: yieldCDF.trace},
		{name: "ml-trials", run: mlTrials.run, trace: mlTrials.trace},
		{name: "recovery-checked", run: recoveryChecked.run, trace: recoveryChecked.trace},
		{name: "served-remote", run: runServed, trace: traceServed},
	}
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload name (yield-cdf, ml-trials, recovery-checked, served-remote)")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: campaign seed and generated inputs")
	fs.Float64Var(&o.seconds, "seconds", 20, "measured run time in seconds")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&o.faultmem, "faultmem", "", "path of the faultmem CLI binary (served-remote)")
	fs.StringVar(&o.out, "out", ".bench_build", "directory the traced run writes its span file to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1, got %d\n", trace)
		return 2
	}
	o.trace = trace == 1
	if o.seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: -seconds must be positive\n")
		return 2
	}
	var def *workloadDef
	names := []string{}
	for _, d := range workloads() {
		names = append(names, d.name)
		if d.name == o.workload {
			def = &d
		}
	}
	if def == nil {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %v)\n", o.workload, names)
		return 2
	}

	fmt.Fprintf(stdout, "machine: %s\n", fingerprint().String())
	fmt.Fprintf(stdout, "workload %s seed %d seconds %g trace %v\n", o.workload, o.seed, o.seconds, o.trace)
	ctx := context.Background()
	run := def.run
	if o.trace {
		run = def.trace
	}
	rep, err := run(ctx, o, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	printMetrics(stdout, rep)
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// printMetrics writes every reported metric by name with its unit, one
// per line, ahead of the JSON result line.
func printMetrics(w io.Writer, rep *report) {
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.Metrics[n]
		fmt.Fprintf(w, "metric %-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "campaigns attempted %d, failed %d, failed_frac %.4f\n",
		rep.Attempted, rep.Failed, failedFrac(rep.Attempted, rep.Failed))
}

// failedFrac is failed over attempted (0 when nothing was attempted).
func failedFrac(attempted, failed int) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// endToEnd fills the end-to-end metrics shared by every workload from
// one closed-loop measurement.
func endToEnd(rep *report, setups, campaigns []time.Duration, dies int, loopWall time.Duration, peakRSSBytes uint64) {
	rep.set("setup_s", median(seconds(setups)), "s")
	rep.set("campaign_s", median(seconds(campaigns)), "s")
	rep.set("dies_per_s", float64(dies)/loopWall.Seconds(), "dies/s")
	rep.set("peak_rss_mb", float64(peakRSSBytes)/(1<<20), "MiB")
	rep.set("ok_frac", 1-failedFrac(rep.Attempted, rep.Failed), "ratio")
	rep.Correct = rep.Failed == 0 && rep.Attempted > 0
}

// setupFailed is the result of a run whose set-up failed: one attempted
// and failed campaign, so the failure reaches the result line.
func setupFailed(w io.Writer, err error, took time.Duration) *report {
	fmt.Fprintf(w, "FAILED: set-up: %v\n", err)
	rep := &report{Attempted: 1, Failed: 1}
	endToEnd(rep, []time.Duration{took}, []time.Duration{0}, 0, took, 0)
	return rep
}

// seconds converts durations to float seconds.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
