package exp

import (
	"context"
	"fmt"
	"strings"

	"faultmem/internal/mc"
)

// Plan is a campaign declared as an ordered list of engine stages plus
// the continuation that renders its Result once every stage has merged.
// The same plan is executed in three places: the local engine runs the
// stages in order; a coordinator runs them with Runner.Exec installed,
// fanning each stage's shards out to workers; a worker rebuilds the plan
// from a shard job's campaign and computes that one shard of that one
// stage (PlanStage), touching nothing else.
type Plan struct {
	// Stages run in order; their tags are unique within the plan.
	Stages []mc.Stage
	// Unit names the coarse progress unit reported once per finished
	// stage ("apps", "workloads"); empty reports none.
	Unit string
	// Result renders the campaign after every stage has merged.
	Result func() (*Result, error)
}

// Planner is the facet of an Experiment whose campaign is a fixed
// sequence of engine stages, declared from the resolved params. Plan
// must be cheap — it resolves params and declares stages but prepares no
// workload instance (stages prepare lazily) — because a worker builds
// the plan for every shard job it serves. Only a Planner's shards can be
// computed remotely.
type Planner interface {
	Experiment
	Plan(r *Runner) (*Plan, error)
}

// stageTag names an engine run on the wire and in the plan: the
// experiment's name, plus "/stage" for multi-stage campaigns.
func stageTag(experiment, stage string) string {
	if stage == "" {
		return experiment
	}
	return experiment + "/" + stage
}

// RunPlan executes e's plan under the runner — the Run of every
// Planner. Each stage runs under the runner's engine environment, so its
// shards report progress and go through r.Exec when one is installed.
func RunPlan(ctx context.Context, e Planner, r *Runner) (*Result, error) {
	pl, err := buildPlan(e, r)
	if err != nil {
		return nil, err
	}
	name := e.Name()
	for i, st := range pl.Stages {
		stage := strings.TrimPrefix(strings.TrimPrefix(st.Tag, name), "/")
		if err := st.Run(r.env(ctx, name, stage)); err != nil {
			return nil, err
		}
		if pl.Unit != "" {
			r.note(name, pl.Unit, i+1, len(pl.Stages))
		}
	}
	return pl.Result()
}

// PlanStage builds the named experiment's plan under r and returns its
// stage tagged tag — what a remote worker runs one shard of. It fails
// for an unknown experiment, one that declares no plan, and a tag the
// plan does not declare.
func PlanStage(name string, r *Runner, tag string) (mc.Stage, error) {
	e, ok := Lookup(name)
	if !ok {
		return mc.Stage{}, &ErrUnknownExperiment{Name: name}
	}
	p, ok := e.(Planner)
	if !ok {
		return mc.Stage{}, fmt.Errorf("exp: %s declares no stage plan", name)
	}
	pl, err := buildPlan(p, r)
	if err != nil {
		return mc.Stage{}, err
	}
	for _, st := range pl.Stages {
		if st.Tag == tag {
			return st, nil
		}
	}
	return mc.Stage{}, fmt.Errorf("exp: %s plan has no stage %q", name, tag)
}

// runStage declares a stage with build, tagged tag, runs it under env
// and returns what its merge produced — the body of the single-stage
// XEnv entry points.
func runStage[R any](env mc.Env, tag string, build func(tag string, done func(R) error) (mc.Stage, error)) (R, error) {
	var res, zero R
	st, err := build(tag, func(out R) error { res = out; return nil })
	if err != nil {
		return zero, err
	}
	if err := st.Run(env); err != nil {
		return zero, err
	}
	return res, nil
}

// singlePlan is the plan of a one-engine-run experiment: the stage
// build declares, tagged with the experiment's name, whose output
// tables renders into the Result.
func singlePlan[R any](name string, params any, build func(tag string, done func(R) error) (mc.Stage, error),
	tables func(R) []*Table) (*Plan, error) {
	var res *Result
	st, err := build(name, func(out R) error {
		res = &Result{Experiment: name, Params: params, Tables: tables(out)}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Plan{Stages: []mc.Stage{st}, Result: func() (*Result, error) { return res, nil }}, nil
}

// buildPlan declares e's plan and checks that its stage tags are
// unique: a worker finds its stage by tag, so a repeated tag would let
// it compute a shard of the wrong stage.
func buildPlan(e Planner, r *Runner) (*Plan, error) {
	pl, err := e.Plan(r)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool, len(pl.Stages))
	for _, st := range pl.Stages {
		if seen[st.Tag] {
			return nil, fmt.Errorf("exp: %s plan declares stage %q twice", e.Name(), st.Tag)
		}
		seen[st.Tag] = true
	}
	return pl, nil
}
