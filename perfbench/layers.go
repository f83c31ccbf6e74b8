package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"time"

	"fexiot"
	"fexiot/internal/autodiff"
	"fexiot/internal/drift"
	"fexiot/internal/eventlog"
	"fexiot/internal/explain"
	"fexiot/internal/fusion"
	"fexiot/internal/gnn"
	"fexiot/internal/graph"
	"fexiot/internal/mat"
	"fexiot/internal/obs"
	"fexiot/internal/rules"
	"fexiot/internal/serve"
	"fexiot/internal/stream"
)

// layerUnits names every per-layer metric and its unit. A traced run
// reports all of them; a layer a workload does not exercise reads 0.
var layerUnits = []struct{ name, unit string }{
	{"serve.decode_ms", "ms"},
	{"serve.encode_ms", "ms"},
	{"serve.engine_ms", "ms"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.shed_share", "ratio"},
	{"fusion.offline_ms", "ms"},
	{"fusion.online_ms", "ms"},
	{"fusion.feature_cache_hit_ratio", "ratio"},
	{"fusion.nodes", "count"},
	{"fusion.edges", "count"},
	{"fusion.foreign_node_share", "ratio"},
	{"fusion.truncated_rule_share", "ratio"},
	{"fusion.shapes_per_repeated_request", "count"},
	{"gnn.embed_ms", "ms"},
	{"gnn.embed_ms.le16", "ms"},
	{"gnn.embed_ms.le32", "ms"},
	{"gnn.embed_ms.le64", "ms"},
	{"mat.flops_per_detect", "count"},
	{"mat.dispatch_per_detect", "count"},
	{"mat.arena_hit_ratio", "ratio"},
	{"mat.bytes_per_detect", "bytes"},
	{"ml.score_us", "us"},
	{"drift.anomaly_us", "us"},
	{"explain.search_ms", "ms"},
	{"explain.fidelity_ms", "ms"},
	{"explain.score_calls", "count"},
	{"explain.distinct_subgraph_ratio", "ratio"},
	{"stream.ingest_ms", "ms"},
	{"stream.verdict_ms", "ms"},
	{"stream.refusion_share", "ratio"},
	{"stream.rescore_share", "ratio"},
	{"stream.unchanged_ingest_share", "ratio"},
	{"stream.window_events", "count"},
	{"fed.local_train_s", "s"},
	{"fed.aggregate_ms", "ms"},
	{"fedproto.round_wait_s", "s"},
	{"codec.encode_ms", "ms"},
	{"codec.compression_ratio", "ratio"},
	{"gen.lateness_ms", "ms"},
	{"trace.overhead_share", "ratio"},
}

// finishLayers fills unreported layers with 0 and prints every layer
// metric.
func finishLayers(c *config, rep *report) {
	for _, l := range layerUnits {
		m, ok := rep.layers[l.name]
		if !ok {
			m = metric{0, l.unit}
		}
		m.Unit = l.unit
		rep.layers[l.name] = m
		printMetric(c.log, l.name, m.Value, l.unit, "")
	}
}

func spanPath(c *config) string {
	return filepath.Join(c.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", c.workload, c.seed))
}

// stack is the serving path assembled in-process from the layers'
// public functions, as fexserve assembles it: the reference's facade
// System fuses graphs, and a serve.Engine answers on a snapshot of a
// detector trained exactly as System.TrainCentral trains it (checked
// against the facade).
type stack struct {
	sys   *fexiot.System
	det   *gnn.Detector
	drf   *drift.Detector
	eng   *serve.Engine
	ws    *gnn.Workspace
	seq   uint64
	flops *obs.Counter
	disp  *obs.CounterVec
	hits  *obs.Counter
	lease *obs.Counter
}

func newStack(ref *reference) (*stack, error) {
	opts, sys, train := ref.opts, ref.first, ref.train
	m := gnn.NewGIN(opts.WordDim+2*fusion.SigDim, opts.Hidden, opts.EmbedDim, 100+opts.Seed)
	cfg := gnn.DefaultTrainConfig(opts.Seed)
	cfg.LR = 0.005
	cfg.PairsPerEpoch = servePairs
	cfg.Metrics = opts.Metrics
	opt := autodiff.NewAdam(cfg.LR)
	opt.WeightDecay = 1e-4
	for r := 0; r < serveRounds; r++ {
		cfg.Seed = opts.Seed + int64(r)
		gnn.TrainContrastive(m, train, cfg, opt)
	}
	det := gnn.NewDetector(m, 3)
	det.FitClassifier(train)
	labels := make([]int, len(train))
	for i, g := range train {
		if g.Label {
			labels[i] = 1
		}
	}
	drf := drift.Fit(gnn.EmbedAll(m, train), labels)

	st := &stack{sys: sys, det: det, drf: drf, ws: gnn.NewWorkspace(),
		eng: serve.NewEngine(serve.Options{Metrics: opts.Metrics})}
	st.publish()
	for _, g := range train[:4] {
		want, err := sys.Detect(g)
		if err != nil {
			return nil, err
		}
		if got := st.eng.Snapshot().Detect(g); !sameBits(got.Score, want.Score) ||
			!sameBits(got.DriftScore, want.DriftScore) {
			st.eng.Close()
			return nil, fmt.Errorf("in-process stack disagrees with the facade: score %v vs %v",
				got.Score, want.Score)
		}
	}
	// The kernel counters are process-global and follow the registry
	// installed last; point them at this stack's.
	mat.InstrumentKernels(opts.Metrics)
	st.flops = opts.Metrics.Counter("fexiot_mat_flops_total", "")
	st.disp = opts.Metrics.CounterVec("fexiot_mat_dispatch_total", "", "mode")
	st.hits = opts.Metrics.Counter("fexiot_mat_arena_hits_total", "")
	st.lease = opts.Metrics.Counter("fexiot_mat_arena_leases_total", "")
	return st, nil
}

// publish swaps in a fresh snapshot of the same model, as a republish does.
func (st *stack) publish() {
	st.seq++
	st.eng.Publish(serve.NewSnapshot(st.seq, st.det, st.drf, explain.DefaultSearchConfig(serveSeed)))
}

type matCounts struct{ flops, disp, hits, leases int64 }

func (st *stack) mat() matCounts {
	return matCounts{st.flops.Value(),
		st.disp.With("serial").Value() + st.disp.With("parallel").Value(),
		st.hits.Value(), st.lease.Value()}
}

// layerStats accumulates the traced counts of one run.
type layerStats struct {
	detects                        int
	mat                            matCounts
	bytes                          float64
	nodes, edges                   []float64
	foreign, nodesTotal            int
	missing, rulesTotal            int
	shapes                         map[int]map[[2]int]bool
	requests                       map[int]int
	scoreCalls, distinct, explains int
	queueWait                      []time.Duration
	explainEvery                   int // also explain every n-th traced detect's graph (0: never)
}

func newLayerStats() *layerStats {
	return &layerStats{shapes: map[int]map[[2]int]bool{}, requests: map[int]int{}}
}

// serveOnce runs one /v1 request through the layers in the order the
// handler does: decode, fuse, engine, encode, and returns how long that
// took. With a tracer it then replays the snapshot's work on the same
// graph (embed, classifier head, drift score, and for explains the search
// and fidelity) so the engine's time splits into work and queue wait.
func (st *stack) serveOnce(tr *tracer, id int, sc servingCall, ls *layerStats) (time.Duration, error) {
	ctx := context.Background()
	began := time.Now()
	root := tr.begin("request", 0, id)
	var in serve.DetectRequest
	var err error
	tr.do("serve.decode", root, id, func(int) {
		req := httptest.NewRequest(http.MethodPost, sc.path, bytes.NewReader(sc.body))
		req.Header.Set("Content-Type", sc.ctype)
		err = serve.ReadJSON(httptest.NewRecorder(), req, 1<<20, &in)
	})
	if err != nil {
		return 0, err
	}
	var g *graph.Graph
	if len(in.Events) > 0 {
		tr.do("fusion.online", root, id, func(int) { g = st.sys.BuildOnlineGraph(in.Rules, in.Events) })
	} else {
		tr.do("fusion.offline", root, id, func(int) { g = st.sys.BuildGraph(in.Rules) })
	}
	if g.N() == 0 {
		return 0, fmt.Errorf("home %d fused into an empty graph", sc.home.idx)
	}
	var body any
	var engine time.Duration
	before := st.mat()
	t0 := time.Now()
	if sc.kind == kExplain {
		tr.do("serve.engine", root, id, func(int) {
			var ex serve.Explanation
			var seq uint64
			ex, seq, err = st.eng.Explain(ctx, g)
			body = serve.ExplainResponse{NodeIndices: ex.NodeIndices, Score: ex.Score,
				Fidelity: ex.Fidelity, Sparsity: ex.Sparsity, SnapshotSeq: seq}
		})
	} else {
		tr.do("serve.engine", root, id, func(int) {
			var v serve.Verdict
			var seq uint64
			v, seq, err = st.eng.Detect(ctx, g)
			body = serve.DetectResponse{Vulnerable: v.Vulnerable, Score: v.Score, Drifting: v.Drifting,
				DriftScore: v.DriftScore, Nodes: g.N(), SnapshotSeq: seq}
		})
	}
	engine = time.Since(t0)
	after := st.mat()
	if err != nil {
		return 0, err
	}
	tr.do("serve.encode", root, id, func(int) { err = serve.WriteJSON(httptest.NewRecorder(), http.StatusOK, body) })
	tr.end(root)
	took := time.Since(began)
	if tr == nil || err != nil {
		return took, err
	}

	// Counts and the snapshot replay, outside the request's span.
	if sc.kind != kExplain {
		ls.detects++
		ls.mat.flops += after.flops - before.flops
		ls.mat.disp += after.disp - before.disp
		ls.mat.hits += after.hits - before.hits
		ls.mat.leases += after.leases - before.leases
		ls.bytes += ginBytes(st.det.Model, g)
	}
	ls.nodes = append(ls.nodes, float64(g.N()))
	ls.edges = append(ls.edges, float64(len(g.Edges)))
	if len(in.Events) == 0 {
		ls.recordFusion(sc.home.idx, in.Rules, g)
	}
	snap := tr.begin("snapshot", 0, id)
	start := time.Now()
	if sc.kind == kExplain {
		st.explainSpans(tr, snap, id, g, ls)
	} else {
		var z []float64
		tr.do(embedBucket(g.N()), snap, id, func(int) { z = st.ws.Embed(st.det.Model, g) })
		tr.do("ml.score", snap, id, func(int) { st.det.Clf.Score(z) })
		tr.do("drift.anomaly", snap, id, func(int) { st.drf.Anomaly(z); st.drf.IsDrifting(z) })
	}
	ls.queueWait = append(ls.queueWait, engine-time.Since(start))
	tr.end(snap)
	if sc.kind != kExplain && ls.explainEvery > 0 && id%ls.explainEvery == 0 {
		// What an explain of this request's graph costs: detect-offline
		// sends no explains, but its graphs are the ones an explain of the
		// same homes searches.
		rp := tr.begin("explain.replay", 0, id)
		st.explainSpans(tr, rp, id, g, ls)
		tr.end(rp)
	}
	return took, nil
}

// explainSpans runs the snapshot's explain work on g (the search and the
// fidelity of its result) through a counting score function.
func (st *stack) explainSpans(tr *tracer, parent, id int, g *graph.Graph, ls *layerStats) {
	calls, seen := 0, map[string]bool{}
	h := func(sub *graph.Graph) float64 {
		calls++
		seen[nodeSetKey(sub)] = true
		if sub.N() == 0 {
			return 0
		}
		return st.det.Score(sub)
	}
	var ex explain.Explanation
	tr.do("explain.search", parent, id, func(int) { ex = explain.FexIoTExplain(h, g, explain.DefaultSearchConfig(serveSeed)) })
	tr.do("explain.fidelity", parent, id, func(int) { explain.Fidelity(h, g, ex.Nodes) })
	ls.explains++
	ls.scoreCalls += calls
	ls.distinct += len(seen)
}

// recordFusion counts how faithfully a rules-only graph represents the
// request: nodes whose rule the caller never sent, sent rules the graph
// leaves out, and how many shapes identical requests produce.
func (ls *layerStats) recordFusion(homeIdx int, sent []*rules.Rule, g *graph.Graph) {
	in := map[*rules.Rule]bool{}
	for _, r := range sent {
		in[r] = true
	}
	present := map[*rules.Rule]bool{}
	for _, n := range g.Nodes {
		if !in[n.Rule] {
			ls.foreign++
		}
		present[n.Rule] = true
	}
	ls.nodesTotal += g.N()
	for _, r := range sent {
		if !present[r] {
			ls.missing++
		}
	}
	ls.rulesTotal += len(sent)
	if ls.shapes[homeIdx] == nil {
		ls.shapes[homeIdx] = map[[2]int]bool{}
	}
	ls.shapes[homeIdx][[2]int{g.N(), len(g.Edges)}] = true
	ls.requests[homeIdx]++
}

// embedBucket names the embed span by node count.
func embedBucket(n int) string {
	switch {
	case n <= 16:
		return "gnn.embed_ms.le16"
	case n <= 32:
		return "gnn.embed_ms.le32"
	default:
		return "gnn.embed_ms.le64"
	}
}

// nodeSetKey identifies a subgraph by its nodes' feature storage, which
// masking shares with the parent graph.
func nodeSetKey(g *graph.Graph) string {
	var b strings.Builder
	for _, n := range g.Nodes {
		if len(n.Feature) > 0 {
			fmt.Fprintf(&b, "%p,", &n.Feature[0])
		}
	}
	return b.String()
}

// ginBytes is the memory traffic of one GIN forward pass computed from
// tensor shapes, not measured: every dense operand and result of the
// products (SpMM aggregation with 8-byte values and indices, the two MLP
// GEMMs and the readout projection) read or written once in float64.
func ginBytes(m gnn.Model, g *graph.Graph) float64 {
	gin, ok := m.(*gnn.GIN)
	if !ok {
		return 0
	}
	n := float64(g.N())
	nnz := float64(g.CachedSumAdjacency(gin.Eps).NNZ())
	h, out := float64(gin.HiddenDim), float64(gin.OutDim)
	d := float64(gin.InputDim)
	var b float64
	for l := 0; l < gin.NumLayers; l++ {
		b += nnz*16 + 2*n*d*8
		b += (n*d + d*h + n*h) * 8
		b += (n*h + h*h + n*h) * 8
		b += (2*h + 2*h*out + out) * 8
		d = h
	}
	return b
}

// tracedRequests is how many requests of the open-loop sequence a traced
// serving pass replays. A fixed count, not a time budget, so the pass's
// counts repeat exactly for a seed.
const tracedRequests = 2 * populationHomes

// traceServing runs the serving workloads' in-process traced pass: the
// first populationHomes requests once untraced to warm caches, then the
// first tracedRequests requests of the open-loop sequence, each once
// untraced and once traced (alternating which goes first), and reports
// the per-layer metrics.
func traceServing(c *config, rep *report, ref *reference, seq []servingCall, res *servingResult,
	explainEvery int) error {
	st, err := newStack(ref)
	if err != nil {
		return err
	}
	defer st.eng.Close()
	for i, sc := range seq[:min(len(seq), populationHomes)] {
		if _, err := st.serveOnce(nil, i, sc, nil); err != nil {
			return err
		}
	}
	tr := newTracer()
	ls := newLayerStats()
	ls.explainEvery = explainEvery
	var plain, traced time.Duration
	for i, sc := range seq[:min(len(seq), tracedRequests)] {
		for pass := 0; pass < 2; pass++ {
			t := tr
			if (i+pass)%2 == 0 {
				t = nil
			}
			took, err := st.serveOnce(t, i+1, sc, ls)
			if err != nil {
				return err
			}
			if t == nil {
				plain += took
			} else {
				traced += took
			}
		}
	}
	spans := tr.snapshot()
	self := selfTimes(spans)
	L := rep.layers
	L["serve.decode_ms"] = metric{medianMs(self["serve.decode"]), "ms"}
	L["serve.encode_ms"] = metric{medianMs(self["serve.encode"]), "ms"}
	L["serve.engine_ms"] = metric{medianMs(self["serve.engine"]), "ms"}
	L["serve.queue_wait_ms"] = metric{medianMs(ls.queueWait), "ms"}
	L["serve.shed_share"] = metric{res.shedShare, "ratio"}
	L["fusion.offline_ms"] = metric{medianMs(self["fusion.offline"]), "ms"}
	L["fusion.online_ms"] = metric{medianMs(self["fusion.online"]), "ms"}
	L["fusion.nodes"] = metric{mean(ls.nodes), "count"}
	L["fusion.edges"] = metric{mean(ls.edges), "count"}
	L["fusion.foreign_node_share"] = metric{share(ls.foreign, ls.nodesTotal), "ratio"}
	L["fusion.truncated_rule_share"] = metric{share(ls.missing, ls.rulesTotal), "ratio"}
	L["fusion.shapes_per_repeated_request"] = metric{ls.shapesPerRepeat(), "count"}
	var embeds []time.Duration
	for _, b := range []string{"gnn.embed_ms.le16", "gnn.embed_ms.le32", "gnn.embed_ms.le64"} {
		L[b] = metric{medianMs(self[b]), "ms"}
		embeds = append(embeds, self[b]...)
	}
	L["gnn.embed_ms"] = metric{medianMs(embeds), "ms"}
	if ls.detects > 0 {
		d := float64(ls.detects)
		L["mat.flops_per_detect"] = metric{float64(ls.mat.flops) / d, "count"}
		L["mat.dispatch_per_detect"] = metric{float64(ls.mat.disp) / d, "count"}
		L["mat.arena_hit_ratio"] = metric{ratio(float64(ls.mat.hits), float64(ls.mat.leases)), "ratio"}
		L["mat.bytes_per_detect"] = metric{ls.bytes / d, "bytes"}
	}
	L["ml.score_us"] = metric{medianMs(self["ml.score"]) * 1e3, "us"}
	L["drift.anomaly_us"] = metric{medianMs(self["drift.anomaly"]) * 1e3, "us"}
	L["explain.search_ms"] = metric{medianMs(self["explain.search"]), "ms"}
	L["explain.fidelity_ms"] = metric{medianMs(self["explain.fidelity"]), "ms"}
	if ls.explains > 0 {
		L["explain.score_calls"] = metric{float64(ls.scoreCalls) / float64(ls.explains), "count"}
		L["explain.distinct_subgraph_ratio"] = metric{share(ls.distinct, ls.scoreCalls), "ratio"}
	}
	lt := res.lateness.summarize()
	L["gen.lateness_ms"] = metric{lt.tail * 1e3, "ms"}
	L["trace.overhead_share"] = metric{ratio(float64(traced-plain), float64(plain)), "ratio"}
	printMetric(c.log, "gen.lateness_"+tailLabel(lt.tailQ)+"_ms", lt.tail*1e3, "ms", fmt.Sprintf("(of %d open-loop sends)", lt.n))
	finishLayers(c, rep)
	return tr.write(spanPath(c))
}

func (ls *layerStats) shapesPerRepeat() float64 {
	var sum, n float64
	for h, cnt := range ls.requests {
		if cnt >= 2 {
			sum += float64(len(ls.shapes[h]))
			n++
		}
	}
	return ratio(sum, n)
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// republishOps is the in-process stream pass's republish cadence in
// requests; a prime, so publishes land at varying points of the scripts.
const republishOps = 97

// engineSpan is the stream layer's view of the engine with a span around
// every detection it asks for.
type engineSpan struct {
	eng *serve.Engine
	tr  *tracer
	cur *[2]int // parent span and request of the call in progress
}

func (e engineSpan) Detect(ctx context.Context, g *graph.Graph) (v serve.Verdict, seq uint64, err error) {
	e.tr.do("serve.engine", e.cur[0], e.cur[1], func(int) { v, seq, err = e.eng.Detect(ctx, g) })
	return v, seq, err
}

func (e engineSpan) SnapshotSeq() (uint64, bool) { return e.eng.SnapshotSeq() }

// traceStream plays every session script through an in-process
// stream.Manager over the stack, once untraced and once traced
// (alternating which goes first). It republishes the snapshot every
// republishOps requests, standing in for fexserve's -republish cadence
// with one that does not depend on the clock, so the pass's counts repeat
// exactly and sessions live across publishes as they do under fexserve.
func traceStream(c *config, rep *report, ref *reference, scripts []*streamScript) error {
	st, err := newStack(ref)
	if err != nil {
		return err
	}
	defer st.eng.Close()
	var tr *tracer
	var cur [2]int
	build := func(rs []*rules.Rule, log eventlog.Log) (*graph.Graph, error) {
		var g *graph.Graph
		tr.do("fusion.online", cur[0], cur[1], func(int) { g = st.sys.BuildOnlineGraph(rs, log) })
		return g, nil
	}
	traced := newTracer()
	es := &engineSpan{eng: st.eng, cur: &cur}
	mgr := stream.NewManager(es, build, stream.Options{})
	defer mgr.Shutdown()

	var ingests, unchanged, verdicts, refused, rescored int
	var window []float64
	var plain, spent time.Duration
	req := 0
	for i, s := range scripts {
		for pass := 0; pass < 2; pass++ {
			tr = nil
			if (i+pass)%2 == 1 {
				tr = traced
			}
			es.tr = tr
			t0 := time.Now()
			id := ""
			for _, op := range s.ops {
				if req++; req%republishOps == 0 {
					st.publish()
				}
				switch op.kind {
				case opCreate:
					if id, err = mgr.Create(s.home.rules); err != nil {
						return err
					}
				case opIngest, opReplay:
					var res stream.IngestResult
					tr.do("stream.ingest", 0, req, func(int) { res, err = mgr.Ingest(id, op.batch) })
					if err != nil {
						return err
					}
					if tr != nil {
						ingests++
						if !res.Changed {
							unchanged++
						}
					}
				case opVerdict, opRepeat:
					var res stream.VerdictResult
					tr.do("stream.verdict", 0, req, func(sp int) {
						cur = [2]int{sp, req}
						res, err = mgr.Verdict(context.Background(), id)
					})
					if err != nil {
						return err
					}
					if tr != nil {
						verdicts++
						if res.Refused {
							refused++
						}
						if res.Rescored {
							rescored++
						}
						window = append(window, float64(res.WindowEvents))
					}
				case opDelete:
					if err := mgr.Delete(id); err != nil {
						return err
					}
				}
			}
			if tr == nil {
				plain += time.Since(t0)
			} else {
				spent += time.Since(t0)
			}
		}
	}
	self := selfTimes(traced.snapshot())
	L := rep.layers
	L["stream.ingest_ms"] = metric{medianMs(self["stream.ingest"]), "ms"}
	L["stream.verdict_ms"] = metric{medianMs(self["stream.verdict"]), "ms"}
	L["fusion.online_ms"] = metric{medianMs(self["fusion.online"]), "ms"}
	L["serve.engine_ms"] = metric{medianMs(self["serve.engine"]), "ms"}
	L["stream.refusion_share"] = metric{share(refused, verdicts), "ratio"}
	L["stream.rescore_share"] = metric{share(rescored, verdicts), "ratio"}
	L["stream.unchanged_ingest_share"] = metric{share(unchanged, ingests), "ratio"}
	L["stream.window_events"] = metric{mean(window), "count"}
	L["trace.overhead_share"] = metric{ratio(float64(spent-plain), float64(plain)), "ratio"}
	finishLayers(c, rep)
	return traced.write(spanPath(c))
}

// traceFederation reports the federation's per-layer metrics from the
// traced federations' spans and fexserver counters.
func traceFederation(c *config, rep *report, tr *tracer, feds []*federation, tracedRound, plainRound float64) {
	self := selfTimes(tr.snapshot())
	L := rep.layers
	L["fed.local_train_s"] = metric{medianMs(self["fed.local_train"]) / 1e3, "s"}
	L["codec.encode_ms"] = metric{medianMs(self["codec.encode"]), "ms"}
	var agg, comp, wait []float64
	for _, f := range feds {
		agg = append(agg, f.aggMs)
		comp = append(comp, f.compRatio)
		for r, d := range f.rounds {
			wait = append(wait, d.Seconds()-f.trainMax[r].Seconds()-f.aggMs/1e3)
		}
	}
	L["fed.aggregate_ms"] = metric{median(agg), "ms"}
	L["codec.compression_ratio"] = metric{median(comp), "ratio"}
	L["fedproto.round_wait_s"] = metric{median(wait), "s"}
	L["trace.overhead_share"] = metric{ratio(tracedRound-plainRound, plainRound), "ratio"}
	finishLayers(c, rep)
}
