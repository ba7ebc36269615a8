package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"time"

	"faultmem/internal/exp"
	"faultmem/internal/memstore"
	"faultmem/internal/serve"
)

// snapAt is one snapshot push as the client received it.
type snapAt struct {
	at   time.Time
	snap serve.JobSnapshot
}

// snapLog records every snapshot push, per job.
type snapLog struct {
	mu    sync.Mutex
	byJob map[uint64][]snapAt
}

func (l *snapLog) on(s serve.JobSnapshot, _ uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.byJob == nil {
		l.byJob = map[uint64][]snapAt{}
	}
	l.byJob[s.ID] = append(l.byJob[s.ID], snapAt{at: time.Now(), snap: s})
}

func (l *snapLog) job(id uint64) []snapAt {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.byJob[id]
}

// jobProgress is one job's timeline read from its snapshot stream.
type jobProgress struct {
	firstProgress time.Time // first snapshot with any shard done
	complete      time.Time // first snapshot with every expected stage done
	stages        []string  // stages in completion order
	walls         []float64 // per stage: completion minus the previous completion (or submit)
	last          time.Time // last snapshot
}

// parseProgress reads a job's stage walls from its snapshots. Stages run
// one after another within a campaign and appear in a snapshot once one
// of their shards is done, so a stage's wall is the time from the
// previous stage's completion (or the submission) to its own. The final
// completes every stage still open at the last snapshot. stages are the
// campaign's engine tags; other progress entries are ignored.
func parseProgress(submit, final time.Time, snaps []snapAt, stages []string) jobProgress {
	var p jobProgress
	done := map[string]bool{}
	var open []string // seen, not yet complete, in order of appearance
	prev := submit
	complete := func(stage string, at time.Time) {
		done[stage] = true
		p.stages = append(p.stages, stage)
		p.walls = append(p.walls, at.Sub(prev).Seconds())
		prev = at
	}
	for _, s := range snaps {
		p.last = s.at
		for _, st := range s.snap.Stages {
			if !slices.Contains(stages, st.Stage) {
				continue // a coarse progress counter, not an engine stage
			}
			if st.Done > 0 && p.firstProgress.IsZero() {
				p.firstProgress = s.at
			}
			if done[st.Stage] {
				continue
			}
			if st.Total > 0 && st.Done == st.Total {
				complete(st.Stage, s.at)
			} else if !slices.Contains(open, st.Stage) {
				open = append(open, st.Stage)
			}
		}
		if len(done) == len(stages) && p.complete.IsZero() {
			p.complete = s.at
		}
	}
	for _, st := range open {
		if !done[st] {
			complete(st, final)
		}
	}
	return p
}

// servedTrace is the client-side view of served campaigns.
type servedTrace struct {
	admitMS, firstProgressS, finalWaitMS, finalBytes float64
	stages                                           []string
	series                                           []float64 // per stage, median wall across jobs
}

func summarizeServed(runs []jobRun, log *snapLog, stages []string) servedTrace {
	var st servedTrace
	var admit, first, wait, size []float64
	perStage := make([][]float64, len(stages))
	for _, j := range runs {
		if j.err != nil {
			continue
		}
		admit = append(admit, j.admitted.Sub(j.submit).Seconds()*1e3)
		size = append(size, float64(j.resultLen))
		p := parseProgress(j.submit, j.final, log.job(j.id), stages)
		if !p.firstProgress.IsZero() {
			first = append(first, p.firstProgress.Sub(j.submit).Seconds())
		}
		switch {
		case !p.complete.IsZero():
			wait = append(wait, j.final.Sub(p.complete).Seconds()*1e3)
		case !p.last.IsZero():
			// The final beat the 100% snapshot: the wait is at most the
			// time since the last snapshot.
			wait = append(wait, j.final.Sub(p.last).Seconds()*1e3)
		}
		if len(p.walls) == len(stages) {
			st.stages = p.stages
			for k, w := range p.walls {
				perStage[k] = append(perStage[k], w)
			}
		}
	}
	// A job can finish before any snapshot shows its progress; an
	// observation no job produced reads 0 rather than failing the run.
	orZero := func(xs []float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		return median(xs)
	}
	st.admitMS, st.firstProgressS, st.finalWaitMS, st.finalBytes = orZero(admit), orZero(first), orZero(wait), orZero(size)
	if st.stages != nil {
		for _, xs := range perStage {
			st.series = append(st.series, median(xs))
		}
	}
	return st
}

// servedProbe serves the local workload's campaign once from an
// in-process server computing its shards locally, and returns the
// client-side view; the final must equal the local result.
func servedProbe(ctx context.Context, spec serve.Campaign, want []byte, stages []string) (servedTrace, drainStats, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return servedTrace{}, drainStats{}, err
	}
	srv := serve.NewServer(ln, serve.Config{LocalWorkers: benchWorkers, SnapshotEvery: 5 * time.Millisecond})
	log := &snapLog{}
	c, err := serve.Dial(ctx, srv.Addr().String(), serve.Options{OnSnapshot: log.on})
	if err != nil {
		srv.Close()
		return servedTrace{}, drainStats{}, err
	}
	runs, _ := servedLoop(ctx, c, spec, 1, 0, want)
	c.Close()
	if err := srv.Drain(ctx); err != nil {
		return servedTrace{}, drainStats{}, err
	}
	ps := srv.PoolStats()
	ds := drainStats{Remote: int(ps.RemoteShards), Local: int(ps.LocalShards), Reassigned: int(ps.Reassigned), Found: true}
	for _, j := range runs {
		if j.err != nil {
			return servedTrace{}, ds, fmt.Errorf("served probe: %w", j.err)
		}
	}
	return summarizeServed(runs, log, stages), ds, nil
}

// layerData is everything a traced run measured, per layer.
type layerData struct {
	split       splitEstimate
	samples     float64 // yield-layer samples per campaign (0: the layer is bypassed)
	mem         []memStats
	trips       tripStats
	replays     []*stageReplay
	allocs      float64
	allocBytes  float64
	ct          *campaignTrace
	served      servedTrace
	drain       drainStats
	servedTimes []time.Duration // served-remote: traced served campaigns
	accounted   float64
}

// armKeys are metric-name spellings of exp.AllProtections, in order.
var armKeys = map[exp.Protection]string{
	exp.ProtNone: "none", exp.ProtShuffle1: "nfm1", exp.ProtShuffle2: "nfm2", exp.ProtShuffle3: "nfm3",
	exp.ProtShuffle4: "nfm4", exp.ProtShuffle5: "nfm5", exp.ProtPECC: "pecc", exp.ProtECC: "ecc",
}

// layerMetrics fills the per-layer metric set from a traced run.
func layerMetrics(rep *report, d *layerData, arms []exp.Protection) {
	rep.set("fault.draw_us", d.split.drawUS, "us")
	rep.set("fault.cells_per_die", d.split.cellsPerDie, "count")
	rep.set("yield.score_ns_per_arm", d.split.scoreNS, "ns")
	rep.set("yield.samples", d.samples, "count")
	rep.set("stats.add_ns", d.split.addNS, "ns")
	rep.set("stats.merge_ms", d.split.mergeMS, "ms")

	var all memStats
	for _, m := range d.mem {
		all.add(m)
	}
	rep.set("mem.install_us", all.installS/float64(max(all.installs, 1))*1e6, "us")
	// Write and read time per die and arm: one die's trips through one
	// arm's memory, whatever the call granularity (page batch or word).
	rep.set("mem.write_us", all.writeS/float64(max(all.dies, 1))*1e6, "us")
	rep.set("mem.read_us", all.readS/float64(max(all.dies, 1))*1e6, "us")
	rep.set("mem.read_checked_frac", float64(all.checkedReads)/float64(max(all.reads, 1)), "ratio")
	rep.set("mem.words_per_trip", float64(d.trips.wordsPerTrip), "count")
	rep.set("mem.corrupted_words_per_die", float64(all.corruptedWords)/float64(max(all.dies, 1)), "count")
	rep.set("mem.due_words_per_die", float64(all.dueWords)/float64(max(all.dies, 1)), "count")
	for _, p := range exp.AllProtections() {
		rows := 0.0
		for i, a := range arms {
			if a == p && d.mem[i].dies > 0 {
				rows = float64(d.mem[i].corruptedRows) / float64(d.mem[i].dies)
			}
		}
		rep.set("mem.corrupted_rows_per_die."+armKeys[p], rows, "count")
	}

	rep.set("memstore.trip_us", median(d.trips.selfUS), "us")
	var rs memstore.RecoveryStats
	trials, trialS, computeS := 0, 0.0, 0.0
	for _, r := range d.replays {
		for _, s := range r.recovery {
			rs.Merge(s)
		}
		trials += r.trials
		trialS += r.trialS
		computeS += r.computeS()
	}
	rep.set("memstore.retries", float64(rs.Retries)/float64(max(trials, 1)), "count")
	rep.set("memstore.restores", float64(rs.Restored)/float64(max(trials, 1)), "count")
	recovered := 0.0
	if rs.Flagged > 0 {
		recovered = float64(rs.Recovered+rs.Restored) / float64(rs.Flagged)
	}
	rep.set("memstore.recovered_frac", recovered, "ratio")

	computeFrac := 0.0
	if trialS > 0 {
		computeFrac = computeS / trialS
	}
	rep.set("workload.compute_frac", computeFrac, "ratio")
	rep.set("workload.allocs_per_trial", d.allocs, "count")
	rep.set("workload.alloc_bytes_per_trial", d.allocBytes, "bytes")

	es := d.ct.engine()
	rep.set("mc.shards", float64(es.shards), "count")
	rep.set("mc.shard_s_p50", es.shardP50, "s")
	rep.set("mc.shard_s_max", es.shardMax, "s")
	rep.set("mc.shard_wait_s", es.waitP50, "s")
	rep.set("mc.busy_frac", es.busyFrac, "ratio")
	stageMax := 0.0
	for _, s := range es.stageWall {
		stageMax = max(stageMax, s)
	}
	rep.set("exp.stages", float64(len(es.stageOrder)), "count")
	rep.set("exp.stage_s_max", stageMax, "s")
	rep.set("exp.tail_ms", d.ct.tailMS, "ms")
	rep.set("exp.render_ms", d.ct.renderMS, "ms")

	rep.set("sweep.result_bytes", d.ct.wire.resultBytes, "bytes")
	rep.set("sweep.wire_bytes", d.ct.wire.wireBytes, "bytes")
	rep.set("sweep.gzip_ratio", d.ct.wire.gzipRatio, "ratio")
	rep.set("sweep.encode_us", d.ct.wire.encodeUS, "us")
	rep.set("sweep.decode_us", d.ct.wire.decodeUS, "us")
	rep.set("sweep.shards_remote", float64(d.drain.Remote), "count")
	rep.set("sweep.shards_local", float64(d.drain.Local), "count")
	rep.set("sweep.reassigned", float64(d.drain.Reassigned), "count")
	first, last := 0.0, 0.0
	if n := len(d.served.series); n > 0 {
		first, last = d.served.series[0], d.served.series[n-1]
	}
	rep.set("sweep.stage_s_first", first, "s")
	rep.set("sweep.stage_s_last", last, "s")

	rep.set("serve.admit_ms", d.served.admitMS, "ms")
	rep.set("serve.first_progress_s", d.served.firstProgressS, "s")
	rep.set("serve.final_wait_ms", d.served.finalWaitMS, "ms")
	rep.set("serve.final_bytes", d.served.finalBytes, "bytes")

	traced := median(seconds(d.ct.traced))
	if d.servedTimes != nil {
		traced = median(seconds(d.servedTimes))
	}
	rep.set("trace.campaign_s", traced, "s")
	rep.set("trace.overhead_frac", d.ct.overhead(), "ratio")
	rep.set("trace.accounted_frac", d.accounted, "ratio")
}

// printLayers writes the per-layer detail the metric set summarizes:
// per-stage, per-app and per-arm numbers.
func printLayers(w io.Writer, d *layerData, arms []exp.Protection, detail map[string]any) {
	es := d.ct.engine()
	stageWalls := map[string]float64{}
	for _, tag := range es.stageOrder {
		fmt.Fprintf(w, "exp.stage_s.%s %.4f s\n", stageName(tag), es.stageWall[tag])
		stageWalls[stageName(tag)] = es.stageWall[tag]
	}
	detail["exp.stage_s"] = stageWalls
	series := map[string]float64{}
	for k, s := range d.served.stages {
		fmt.Fprintf(w, "sweep.stage_s.%s %.4f s\n", stageName(s), d.served.series[k])
		series[stageName(s)] = d.served.series[k]
	}
	detail["sweep.stage_s"] = series
	fmt.Fprintf(w, "sweep: %d shards remote, %d local, %d reassigned\n", d.drain.Remote, d.drain.Local, d.drain.Reassigned)
	fmt.Fprintf(w, "outside estimates: draw %.3f us/die (sampler %.3f), score %.1f ns/arm, add %.1f ns, merge %.3f ms, %.2f faulty cells/die\n",
		d.split.drawUS, d.split.samplerUS, d.split.scoreNS, d.split.addNS, d.split.mergeMS, d.split.cellsPerDie)

	perArm := map[string]map[string]float64{}
	for i, a := range arms {
		m := d.mem[i]
		if m.dies == 0 {
			continue
		}
		row := map[string]float64{
			"corrupted_words_per_die": float64(m.corruptedWords) / float64(m.dies),
			"corrupted_rows_per_die":  float64(m.corruptedRows) / float64(m.dies),
			"due_words_per_die":       float64(m.dueWords) / float64(m.dies),
			"install_us":              m.installS / float64(max(m.installs, 1)) * 1e6,
			"read_us":                 m.readS / float64(m.dies) * 1e6,
		}
		perArm[armKeys[a]] = row
		fmt.Fprintf(w, "mem %-15s corrupted words/die %8.2f rows/die %8.2f DUE words/die %7.2f install %7.2f us read %7.2f us\n",
			a, row["corrupted_words_per_die"], row["corrupted_rows_per_die"], row["due_words_per_die"], row["install_us"], row["read_us"])
	}
	detail["mem.per_arm"] = perArm

	perApp := map[string]map[string]float64{}
	for _, r := range d.replays {
		row := map[string]float64{
			"trial_us":   r.trialS / float64(r.trials*len(arms)) * 1e6,
			"compute_us": r.computeS() / float64(r.trials*len(arms)) * 1e6,
			"mem_us":     r.memS / float64(r.trials*len(arms)) * 1e6,
			"wall_s":     r.wallS,
		}
		for i, a := range arms {
			if r.mem[i].dies > 0 {
				row["corrupted_rows_per_die."+armKeys[a]] = float64(r.mem[i].corruptedRows) / float64(r.mem[i].dies)
			}
		}
		perApp[r.stage.name] = row
		fmt.Fprintf(w, "workload.trial_us.%s %.2f us per arm-die (compute %.2f, memory %.2f); stage wall %.3f s; rows/die none %.1f ecc %.1f\n",
			r.stage.name, row["trial_us"], row["compute_us"], row["mem_us"], r.wallS,
			row["corrupted_rows_per_die.none"], row["corrupted_rows_per_die.ecc"])
	}
	detail["workload.per_stage"] = perApp
}

// accountReplay is the share of the replay's engine slot time (workers x
// stage wall) that memory, compute and engine self time explain; the
// rest is the fault-free twin (trace overhead) and idle slots.
func accountReplay(w io.Writer, replays []*stageReplay) float64 {
	var memS, computeS, selfS, twinS, slotS float64
	for _, r := range replays {
		memS += r.memS
		computeS += r.computeS()
		selfS += r.shardSelfS
		twinS += r.twinS
		slotS += float64(benchWorkers) * r.wallS
	}
	fmt.Fprintf(w, "replay accounting: memory %.3f s + compute %.3f s + engine %.3f s + twin %.3f s + idle %.3f s = %d workers x %.3f s\n",
		memS, computeS, selfS, twinS, slotS-memS-computeS-selfS-twinS, benchWorkers, slotS/benchWorkers)
	return (memS + computeS + selfS) / slotS
}

// trace is the traced run of a local workload.
func (lw *localWorkload) trace(ctx context.Context, o options, w io.Writer) (*report, error) {
	refs, err := references()
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	prepare := map[string]float64{}
	if len(lw.instances) > 0 {
		perApp := map[string][]float64{}
		for rep := 0; rep < setupReps; rep++ {
			_, apps, err := lw.prepare(o.seed)
			if err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
			for app, s := range apps {
				perApp[app] = append(perApp[app], s)
			}
		}
		for _, app := range lw.instances {
			prepare[app] = median(perApp[app])
			fmt.Fprintf(w, "workload.prepare_s.%s %.6f s\n", app, prepare[app])
		}
	}
	rep := &report{}
	if err := checkFidelity(exp.AllProtections()); err != nil {
		return nil, err
	}
	ct, err := traceCampaigns(ctx, tr, lw.experiment, func() *exp.Runner { return lw.runner(o.seed) }, o.seconds/2, w)
	if err != nil {
		return nil, err
	}
	rep.Attempted = 2 * len(ct.traced)
	got, err := headlines(ct.result)
	if err == nil {
		err = checkHeadlines(got, refs[lw.name])
	}
	if err != nil {
		return nil, fmt.Errorf("untraced result: %w", err)
	}
	want, err := ct.result.JSON()
	if err != nil {
		return nil, err
	}

	d := &layerData{ct: ct}
	seed := o.seed
	spec := serve.Campaign{Experiment: lw.experiment, Workers: benchWorkers, Seed: &seed, Params: json.RawMessage(lw.params)}
	d.served, d.drain, err = servedProbe(ctx, spec, want, ct.engine().stageOrder)
	if err != nil {
		return nil, err
	}
	rep.Attempted++

	arms := exp.AllProtections()
	switch lw.name {
	case "yield-cdf":
		arms = exp.Fig5Arms()
		p := exp.DefaultFig5Params().CDF
		d.split = estimateSplit(o.seed, p.Rows, p.Pcell, 200000, false)
		n, err := lw.dies(ct.result)
		if err != nil {
			return nil, err
		}
		d.samples = float64(n)
		plain, checked, err := fig5Trips(o.seed, 50)
		if err != nil {
			return nil, err
		}
		d.trips = plain
		d.mem = make([]memStats, len(arms))
		for i := range arms {
			d.mem[i].add(plain.mem[i])
			d.mem[i].add(checked.mem[i])
		}
		perDie := d.split.samplerUS*1e-6 + float64(len(arms))*(d.split.scoreNS+d.split.addNS)*1e-9
		es := ct.engine()
		slot := float64(benchWorkers) * es.stageWall[es.stageOrder[0]]
		d.accounted = d.samples * perDie / slot
		fmt.Fprintf(w, "split estimate: %.3f s of draw+score+add over %.3f s of shard slot time\n", d.samples*perDie, slot)
	default:
		var tc trialCampaign
		if lw.name == "ml-trials" {
			tc = workloadsCampaign(lw.trials, o.seed)
		} else {
			tc = recoveryCampaign(lw.trials, o.seed)
		}
		d.split = estimateSplit(o.seed, tc.rows, tc.pcell, 5000, true)
		if err := traceTrials(ctx, tr, tc, d, w); err != nil {
			return nil, err
		}
		rep.Attempted++
	}
	detail := map[string]any{"workload.prepare_s": prepare}
	printLayers(w, d, arms, detail)
	layerMetrics(rep, d, arms)
	rep.Correct = true
	path, err := tr.write(o.out, lw.name, o.seed, detail)
	if err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(w, "spans written to %s\n", path)
	return rep, nil
}

// traceTrials replays a trial campaign through traced arms and times
// its round trips, filling the memory, memstore and workload layers.
func traceTrials(ctx context.Context, tr *tracer, tc trialCampaign, d *layerData, w io.Writer) error {
	replays, allocs, bytes, err := replayCampaign(ctx, tr, tc)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "replay: per-arm qualities identical to the untraced campaign on all %d stages\n", len(replays))
	d.replays, d.allocs, d.allocBytes = replays, allocs, bytes
	arms := exp.AllProtections()
	d.mem = make([]memStats, len(arms))
	for _, r := range replays {
		for i := range arms {
			d.mem[i].add(r.mem[i])
		}
	}
	d.accounted = accountReplay(w, replays)
	for _, st := range tc.stages {
		ts, err := stageTrips(tc, st, 2)
		if err != nil {
			return err
		}
		d.trips.selfUS = append(d.trips.selfUS, ts.selfUS...)
		d.trips.wordsPerTrip = max(d.trips.wordsPerTrip, ts.wordsPerTrip)
	}
	return nil
}

// traceServed is the traced run of served-remote: the served loop with
// every snapshot recorded, plus the local layers of the same spec.
func traceServed(ctx context.Context, o options, w io.Writer) (*report, error) {
	if o.faultmem == "" {
		return nil, fmt.Errorf("served-remote needs -faultmem")
	}
	tr := newTracer()
	spec := servedSpec(o.seed)
	want, err := localReference(ctx, spec)
	if err != nil {
		return nil, fmt.Errorf("local reference: %w", err)
	}
	if err := checkFidelity(exp.AllProtections()); err != nil {
		return nil, err
	}
	// The local layers of the same spec first: engine, campaign and wire
	// from gated local runs; their engine tags name the served stages.
	quick := func() *exp.Runner {
		return &exp.Runner{Workers: spec.Workers, Quick: spec.Quick, Seed: spec.Seed}
	}
	d := &layerData{}
	d.ct, err = traceCampaigns(ctx, tr, spec.Experiment, quick, o.seconds/4, w)
	if err != nil {
		return nil, err
	}
	p, setups, err := servedSetup(o.faultmem)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer p.stop()
	printTimes(w, "set-up", setups)
	rctx, cancel := context.WithTimeout(ctx, time.Duration(o.seconds*float64(time.Second))+150*time.Second)
	defer cancel()
	log := &snapLog{}
	c, err := serve.Dial(rctx, p.addr, serve.Options{OnSnapshot: log.on})
	if err != nil {
		return nil, err
	}
	runs, _ := servedLoop(rctx, c, spec, servedInflight, o.seconds/2, want)
	c.Close()
	d.drain = p.stop()
	rep := &report{Attempted: len(runs) + 2*len(d.ct.traced)}
	for _, j := range runs {
		tr.add("serve.campaign", int(j.id), 0, j.submit, j.final)
		tr.add("serve.admit", int(j.id), 0, j.submit, j.admitted)
		d.servedTimes = append(d.servedTimes, j.campaign())
		if j.err != nil {
			return nil, fmt.Errorf("served campaign: %w", j.err)
		}
	}
	if !d.drain.Found || d.drain.Local != 0 {
		return nil, fmt.Errorf("server drain line %+v: want every shard remote", d.drain)
	}
	d.served = summarizeServed(runs, log, d.ct.engine().stageOrder)
	tc := workloadsCampaign(exp.QuickWorkloadsTrials, o.seed)
	d.split = estimateSplit(o.seed, tc.rows, tc.pcell, 5000, true)
	if err := traceTrials(ctx, tr, tc, d, w); err != nil {
		return nil, err
	}
	rep.Attempted++
	arms := exp.AllProtections()
	detail := map[string]any{}
	printLayers(w, d, arms, detail)
	layerMetrics(rep, d, arms)
	rep.Correct = true
	path, err := tr.write(o.out, "served-remote", o.seed, detail)
	if err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(w, "spans written to %s\n", path)
	return rep, nil
}
