package exp

import (
	"context"
	"fmt"
	"strings"

	"faultmem/internal/mc"
	"faultmem/internal/memstore"
	"faultmem/internal/workload"
)

// WorkloadsParams configures the workloads campaign: fig7-style
// quality-vs-yield CDFs for any subset of the workload registry, run
// through all eight protection arms.
type WorkloadsParams struct {
	// Workloads are the canonical workload names to run, in order
	// (workload.Names()). Empty means every registered workload.
	Workloads []string
	// Rows is the memory macro depth (4096 = 16 KB).
	Rows int
	// Pcell is the bit-cell failure probability.
	Pcell float64
	// Trials is the Monte-Carlo budget per workload (each trial runs all
	// eight arms on one die).
	Trials int
	// Seed drives problem generation and fault maps; the same seed gives
	// every workload the same die sequence (common random numbers).
	Seed int64
	// Keys is the resilient-sort key count (0 = the workload default).
	Keys int
	// Dim is the CG system dimension (0 = the workload default).
	Dim int
	// Iters is the CG iteration budget (0 = Dim).
	Iters int
	// MadelonPaperSize switches the PCA workload to the full 500-feature
	// geometry.
	MadelonPaperSize bool
	// Workers is the goroutine count (0 = GOMAXPROCS); results are
	// identical for every worker count.
	Workers int
}

// DefaultWorkloadsParams returns the campaign defaults: every
// registered workload at the fig7 memory geometry, with a 200-trial
// budget (the 8-arm sweep costs 2x a 4-arm fig7 trial).
func DefaultWorkloadsParams() WorkloadsParams {
	return WorkloadsParams{
		Workloads: workload.Names(),
		Rows:      4096,
		Pcell:     1e-3,
		Trials:    200,
		Seed:      7,
	}
}

// QuickWorkloadsTrials is the reduced -quick budget for CI smokes.
const QuickWorkloadsTrials = 8

// WorkloadRun is one workload's quality-vs-yield result.
type WorkloadRun struct {
	// Workload is the canonical name; Display the figure-facing one.
	Workload string
	Display  string
	// Metric names the quality metric before normalization.
	Metric string
	// Clean is the fault-free reference value of the metric.
	Clean float64
	// Arms holds one sorted quality sample per protection arm, in
	// AllProtections order.
	Arms []Fig7Arm
}

// WorkloadsResult bundles the campaign run.
type WorkloadsResult struct {
	Params WorkloadsParams
	Runs   []WorkloadRun
}

// resolveWorkloads maps the params' name subset to IDs (all registered
// workloads when empty), rejecting unknown names and duplicates.
func (p WorkloadsParams) resolveWorkloads() ([]workload.ID, error) {
	if len(p.Workloads) == 0 {
		return workload.All(), nil
	}
	ids := make([]workload.ID, 0, len(p.Workloads))
	seen := map[workload.ID]bool{}
	for _, name := range p.Workloads {
		id, err := workload.Parse(name)
		if err != nil {
			return nil, fmt.Errorf("exp: workloads params: %w", err)
		}
		if seen[id] {
			return nil, fmt.Errorf("exp: workloads params: duplicate workload %q", name)
		}
		seen[id] = true
		ids = append(ids, id)
	}
	return ids, nil
}

// Workloads runs the campaign on the parallel engine.
func Workloads(p WorkloadsParams) (WorkloadsResult, error) {
	return WorkloadsEnv(mc.Env{}, p)
}

// WorkloadsEnv is Workloads under an execution environment: each
// selected workload runs the shared quality engine (one RNG stream per
// trial, bit-identical at any worker count) through all eight
// protection arms. The same (seed, trial) stream drives every
// workload's dies, so the per-workload CDFs are compared on common
// random numbers.
func WorkloadsEnv(env mc.Env, p WorkloadsParams) (WorkloadsResult, error) {
	res := WorkloadsResult{Params: p}
	stages, err := p.stages("workloads", &res)
	if err != nil {
		return WorkloadsResult{}, err
	}
	for _, st := range stages {
		if err := st.Run(env); err != nil {
			return WorkloadsResult{}, err
		}
	}
	return res, nil
}

// stages validates the params and declares one quality stage per
// selected workload, tagged experiment/<workload>, each running all
// protection arms; each stage's merge appends its workload's run to
// res.Runs. The instance is prepared lazily by whichever host computes
// the stage's shards.
func (p WorkloadsParams) stages(experiment string, res *WorkloadsResult) ([]mc.Stage, error) {
	if p.Trials < 1 || p.Rows < 1 || p.Pcell <= 0 || p.Pcell >= 1 {
		return nil, fmt.Errorf("exp: bad workloads params %+v", p)
	}
	ids, err := p.resolveWorkloads()
	if err != nil {
		return nil, err
	}
	stages := make([]mc.Stage, len(ids))
	for i, id := range ids {
		wp := workload.Params{
			Seed:             p.Seed,
			MadelonPaperSize: p.MadelonPaperSize,
			Keys:             p.Keys,
			Dim:              p.Dim,
			Iters:            p.Iters,
		}
		stages[i] = qualityStage(stageTag(experiment, strings.ToLower(id.String())),
			func() (workload.Instance, error) { return workload.PrepareShared(id, wp) },
			qualityConfig{
				name:    id.String(),
				arms:    AllProtections(),
				rows:    p.Rows,
				pcell:   p.Pcell,
				trials:  p.Trials,
				workers: p.Workers,
				seed:    p.Seed,
			},
			func(inst workload.Instance, arms []Fig7Arm, _ []memstore.RecoveryStats) error {
				res.Runs = append(res.Runs, WorkloadRun{
					Workload: id.String(),
					Display:  id.Display(),
					Metric:   inst.Metric(),
					Clean:    inst.Clean(),
					Arms:     arms,
				})
				return nil
			})
	}
	return stages, nil
}

// QualityCDFTable tabulates one workload's per-arm quality CDF over a
// fixed grid — a Fig. 7-style curve set over all eight arms.
func (r WorkloadsResult) QualityCDFTable(run WorkloadRun) *Table {
	header := []string{"normalized " + run.Metric}
	for _, a := range run.Arms {
		header = append(header, a.Scheme.String())
	}
	t := &Table{
		Title: fmt.Sprintf("Workload %s - CDF of quality under memory failures (16KB, Pcell=%.0e)",
			run.Display, r.Params.Pcell),
		Header: header,
		Notes: []string{
			fmt.Sprintf("fault-free %s = %.4g (quality 1.0); %d Monte-Carlo trials per arm",
				run.Metric, run.Clean, r.Params.Trials),
		},
	}
	for q := 0.0; q <= 1.0001; q += 0.05 {
		row := []string{fmt.Sprintf("%.2f", q)}
		for _, a := range run.Arms {
			row = append(row, fmt.Sprintf("%.3f", a.CDFAt(q)))
		}
		t.AddRow(row...)
	}
	return t
}

// SummaryTable reports mean quality and low quantiles per arm for one
// workload.
func (r WorkloadsResult) SummaryTable(run WorkloadRun) *Table {
	t := &Table{
		Title:  fmt.Sprintf("Workload summary - %s (%s)", run.Display, run.Metric),
		Header: []string{"scheme", "mean quality", "q10", "q50", "min"},
	}
	for _, a := range run.Arms {
		t.AddRow(a.Scheme.String(),
			fmt.Sprintf("%.4f", a.Mean()),
			fmt.Sprintf("%.4f", a.QualityAtYield(0.10)),
			fmt.Sprintf("%.4f", a.QualityAtYield(0.50)),
			fmt.Sprintf("%.4f", a.Qualities[0]))
	}
	return t
}

// workloadsExperiment adapts the campaign to the registry.
type workloadsExperiment struct{}

func (workloadsExperiment) Name() string { return "workloads" }
func (workloadsExperiment) Description() string {
	return "quality-vs-yield CDFs for the resilient-workload family, all 8 arms"
}
func (workloadsExperiment) DefaultParams() any { return DefaultWorkloadsParams() }

func (e workloadsExperiment) Run(ctx context.Context, r *Runner) (*Result, error) {
	return RunPlan(ctx, e, r)
}

// Plan declares one quality stage per selected workload.
func (e workloadsExperiment) Plan(r *Runner) (*Plan, error) {
	p, err := runnerParams[WorkloadsParams](r, e)
	if err != nil {
		return nil, err
	}
	p.Seed = r.seedOr(p.Seed)
	p.Workers = r.workersOr(p.Workers)
	if r.quick() && p.Trials > QuickWorkloadsTrials {
		p.Trials = QuickWorkloadsTrials
	}
	out := WorkloadsResult{Params: p}
	stages, err := p.stages(e.Name(), &out)
	if err != nil {
		return nil, err
	}
	return &Plan{Stages: stages, Unit: "workloads", Result: func() (*Result, error) {
		res := &Result{Experiment: e.Name(), Params: p}
		for _, run := range out.Runs {
			res.Tables = append(res.Tables, out.QualityCDFTable(run), out.SummaryTable(run))
		}
		return res, nil
	}}, nil
}
