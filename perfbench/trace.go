package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"faultmem/internal/exp"
	"faultmem/internal/mc"
	"faultmem/internal/sweep"
)

// The traced run. Spans are kept in memory and written to
// <out>/trace-<workload>-<seed>.json when the run ends; the per-layer
// metrics are computed from them and printed as the result line.

// span is one timed call into a layer: its name, interval (seconds
// since the run's epoch), the span that caused it, and the campaign it
// belongs to.
type span struct {
	ID       int     `json:"id"`
	Parent   int     `json:"parent"`
	Campaign int     `json:"campaign"`
	Name     string  `json:"name"`
	Start    float64 `json:"start"`
	End      float64 `json:"end"`
}

// tracer collects spans from any goroutine.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) at(x time.Time) float64 { return x.Sub(t.epoch).Seconds() }

// add records a span and returns its ID (IDs start at 1; parent 0 is
// the run itself).
func (t *tracer) add(name string, campaign, parent int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Campaign: campaign, Name: name,
		Start: t.at(start), End: t.at(end)})
	return id
}

// write stores every span and the run's per-layer detail as JSON.
func (t *tracer) write(dir, workload string, seed int64, detail map[string]any) (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-%d.json", workload, seed))
	b, err := json.Marshal(map[string]any{
		"workload": workload, "seed": seed, "machine": fingerprint(),
		"detail": detail, "spans": t.spans,
	})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}

// shardRun is one engine shard as the gate saw it.
type shardRun struct {
	tag                  string
	queued, start, end   time.Time
	encode, decode       func() error // wire round trip of the shard value; nil unless captured
	payload, frame, wire int
}

// gate is the traced run's engine executor: every shard waits for one
// of Workers slots, so the traced campaign runs at the concurrency of
// the untraced one even though Exec lifts the engine's claiming
// goroutines to the shard count.
type gate struct {
	slots   chan struct{}
	capture bool // also round-trip every shard value through the wire codec

	mu     sync.Mutex
	shards []shardRun
}

func newGate(workers int, capture bool) *gate {
	return &gate{slots: make(chan struct{}, workers), capture: capture}
}

func (g *gate) exec(job mc.ShardJob) (any, error) {
	r := shardRun{tag: job.Tag, queued: time.Now()}
	select {
	case g.slots <- struct{}{}:
	case <-job.Ctx.Done():
		return nil, job.Ctx.Err()
	}
	r.start = time.Now()
	v := job.Run()
	r.end = time.Now()
	<-g.slots
	if g.capture {
		if err := captureWire(&r, job, v); err != nil {
			return nil, err
		}
	}
	g.mu.Lock()
	g.shards = append(g.shards, r)
	g.mu.Unlock()
	return v, nil
}

// take returns and clears the recorded shards.
func (g *gate) take() []shardRun {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := g.shards
	g.shards = nil
	return out
}

// captureWire keeps the shard's real payload and prepares timed
// closures for the path a remote result takes: the engine's gob
// encoding, the Result message frame, and the gzip frame the worker
// sends — then back through frame parsing, inflation and decoding.
func captureWire(r *shardRun, job mc.ShardJob, v any) error {
	data, err := job.Encode(v)
	if err != nil {
		return err
	}
	msg := &sweep.Result{ID: 1, Shard: job.Shard, Data: data}
	plain := sweep.EncodeMessage(msg)
	_, payload, _, err := sweep.ParseFrame(plain)
	if err != nil {
		return err
	}
	wire := sweep.AppendFrameFlags(nil, sweep.MsgResult, sweep.FlagGzip, payload)
	r.payload, r.frame, r.wire = len(data), len(plain), len(wire)
	r.encode = func() error {
		b, err := job.Encode(v)
		if err != nil {
			return err
		}
		m := &sweep.Result{ID: 1, Shard: job.Shard, Data: b}
		_, p, _, err := sweep.ParseFrame(sweep.EncodeMessage(m))
		if err != nil {
			return err
		}
		sweep.AppendFrameFlags(nil, sweep.MsgResult, sweep.FlagGzip, p)
		return nil
	}
	r.decode = func() error {
		t, p, err := sweep.ReadFrame(bytes.NewReader(wire))
		if err != nil {
			return err
		}
		m, err := sweep.DecodeMessage(t, p)
		if err != nil {
			return err
		}
		res, ok := m.(*sweep.Result)
		if !ok || !bytes.Equal(res.Data, data) {
			return fmt.Errorf("shard %d of %s: wire round trip changed the payload", job.Shard, job.Tag)
		}
		_, err = job.Decode(res.Data)
		return err
	}
	return nil
}

// engineStats summarizes the gate's shards of one or more campaigns.
type engineStats struct {
	shards               int
	shardP50, shardMax   float64
	waitP50, busyFrac    float64
	stageWall            map[string]float64 // per tag: first queue -> last end
	stageOrder           []string
	lastEnd              time.Time
	busy, wallTimesSlots float64
}

func summarizeEngine(runs []shardRun, workers int) engineStats {
	es := engineStats{shards: len(runs), stageWall: map[string]float64{}}
	first := map[string]time.Time{}
	last := map[string]time.Time{}
	var dur, wait []float64
	for _, r := range runs {
		d := r.end.Sub(r.start).Seconds()
		dur = append(dur, d)
		wait = append(wait, r.start.Sub(r.queued).Seconds())
		es.busy += d
		if f, ok := first[r.tag]; !ok || r.queued.Before(f) {
			if !ok {
				es.stageOrder = append(es.stageOrder, r.tag)
			}
			first[r.tag] = r.queued
		}
		if r.end.After(last[r.tag]) {
			last[r.tag] = r.end
		}
		if r.end.After(es.lastEnd) {
			es.lastEnd = r.end
		}
	}
	for tag, f := range first {
		es.stageWall[tag] = last[tag].Sub(f).Seconds()
		es.wallTimesSlots += float64(workers) * es.stageWall[tag]
	}
	sort.Slice(es.stageOrder, func(i, j int) bool { return first[es.stageOrder[i]].Before(first[es.stageOrder[j]]) })
	es.shardP50, es.shardMax = median(dur), percentile(dur, 100)
	es.waitP50 = median(wait)
	if es.wallTimesSlots > 0 {
		es.busyFrac = es.busy / es.wallTimesSlots
	}
	return es
}

// wireStats times the captured shard payloads through the wire codec.
type wireStats struct {
	resultBytes, wireBytes, gzipRatio float64
	encodeUS, decodeUS                float64
}

func timeWire(runs []shardRun) (wireStats, error) {
	var ws wireStats
	var enc, dec, payload, wire, ratio []float64
	for _, r := range runs {
		if r.encode == nil {
			continue
		}
		t0 := time.Now()
		if err := r.encode(); err != nil {
			return ws, err
		}
		t1 := time.Now()
		if err := r.decode(); err != nil {
			return ws, err
		}
		enc = append(enc, t1.Sub(t0).Seconds()*1e6)
		dec = append(dec, time.Since(t1).Seconds()*1e6)
		payload = append(payload, float64(r.payload))
		wire = append(wire, float64(r.wire))
		ratio = append(ratio, float64(r.wire)/float64(r.frame))
	}
	if len(enc) == 0 {
		return ws, fmt.Errorf("no shard payload was captured")
	}
	ws.encodeUS, ws.decodeUS = median(enc), median(dec)
	ws.resultBytes, ws.wireBytes, ws.gzipRatio = mean(payload), mean(wire), mean(ratio)
	return ws, nil
}

// campaignTrace is the engine and campaign-layer view of traced local
// campaigns of one spec, alternated with untraced ones.
type campaignTrace struct {
	untraced, traced []time.Duration
	engines          []engineStats // one per traced campaign
	wire             wireStats
	tailMS, renderMS float64
	result           *exp.Result
}

// traceCampaigns alternates untraced and gated campaigns of (name, r)
// for the run time (at least one pair). The first gated campaign also
// captures every shard's wire payload.
func traceCampaigns(ctx context.Context, tr *tracer, name string, mk func() *exp.Runner, secs float64, w io.Writer) (*campaignTrace, error) {
	ct := &campaignTrace{}
	var captured []shardRun
	var tails []float64
	var pairs []time.Duration // untraced plus traced time of each pair
	start := time.Now()
	for i := 1; another(start, secs, pairs); i++ {
		t0 := time.Now()
		res, err := exp.Run(ctx, name, mk())
		if err != nil {
			return nil, err
		}
		ct.untraced = append(ct.untraced, time.Since(t0))
		if ct.result == nil {
			ct.result = res
		}

		g := newGate(benchWorkers, i == 1)
		r := mk()
		r.Exec = g.exec
		t0 = time.Now()
		if _, err := exp.Run(ctx, name, r); err != nil {
			return nil, err
		}
		t1 := time.Now()
		ct.traced = append(ct.traced, t1.Sub(t0))
		campaign := tr.add("exp.campaign", i, 0, t0, t1)
		shards := g.take()
		for _, s := range shards {
			tr.add("mc.wait."+s.tag, i, campaign, s.queued, s.start)
			tr.add("mc.shard."+s.tag, i, campaign, s.start, s.end)
		}
		es := summarizeEngine(shards, benchWorkers)
		ct.engines = append(ct.engines, es)
		tails = append(tails, t1.Sub(es.lastEnd).Seconds()*1e3)
		if i == 1 {
			captured = shards
		}
		pairs = append(pairs, ct.untraced[i-1]+ct.traced[i-1])
		fmt.Fprintf(w, "traced pair %d: untraced %.4f s, traced %.4f s\n", i, ct.untraced[i-1].Seconds(), ct.traced[i-1].Seconds())
	}
	var renders []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if _, err := ct.result.JSON(); err != nil {
			return nil, err
		}
		if err := ct.result.Render(io.Discard); err != nil {
			return nil, err
		}
		renders = append(renders, time.Since(t0).Seconds()*1e3)
	}
	ct.tailMS, ct.renderMS = median(tails), median(renders)
	var err error
	ct.wire, err = timeWire(captured)
	return ct, err
}

// overhead is traced over untraced median campaign time, minus one.
func (ct *campaignTrace) overhead() float64 {
	return median(seconds(ct.traced))/median(seconds(ct.untraced)) - 1
}

// engine is the per-campaign medians of the traced campaigns' engine
// statistics, with each stage's wall time.
func (ct *campaignTrace) engine() (es engineStats) {
	pick := func(f func(engineStats) float64) float64 {
		xs := make([]float64, len(ct.engines))
		for i, e := range ct.engines {
			xs[i] = f(e)
		}
		return median(xs)
	}
	es.shards = ct.engines[0].shards
	es.shardP50 = pick(func(e engineStats) float64 { return e.shardP50 })
	es.shardMax = pick(func(e engineStats) float64 { return e.shardMax })
	es.waitP50 = pick(func(e engineStats) float64 { return e.waitP50 })
	es.busyFrac = pick(func(e engineStats) float64 { return e.busyFrac })
	es.stageOrder = ct.engines[0].stageOrder
	es.stageWall = map[string]float64{}
	for _, tag := range es.stageOrder {
		es.stageWall[tag] = pick(func(e engineStats) float64 { return e.stageWall[tag] })
	}
	return es
}
