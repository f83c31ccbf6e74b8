package main

import (
	"encoding/json"
	"fmt"
	"math"

	"fexiot"
	"fexiot/internal/eventlog"
	"fexiot/internal/obs"
	"fexiot/internal/rules"
	"fexiot/internal/serve"
	"fexiot/internal/stream"
)

// fexserve's startup defaults. The reference below trains with exactly
// these, so its snapshots equal the ones a default fexserve publishes.
const (
	serveSeed          = 7
	serveHomes         = 10
	serveRulesPerHome  = 22
	serveGraphsPerHome = 4
	serveRounds        = 3
	servePairs         = 80
)

// serveOptions mirrors the options cmd/fexserve builds its System from.
func serveOptions() fexiot.Options {
	o := fexiot.DefaultOptions()
	o.Seed = serveSeed
	o.WordDim, o.SentenceDim = 24, 32
	o.Hidden, o.EmbedDim = 12, 8
	o.Metrics = obs.NewRegistry()
	return o
}

// trainingGraphs mirrors fexserve's startup corpus.
func trainingGraphs(sys *fexiot.System) []*fexiot.Graph {
	archs := fexiot.ArchetypeNames()
	var train []*fexiot.Graph
	for h := 0; h < serveHomes; h++ {
		deployed := fexiot.GenerateHome(archs[h%len(archs)], serveRulesPerHome,
			serveSeed+int64(h+1))
		for i := 0; i < serveGraphsPerHome; i++ {
			train = append(train, sys.BuildGraph(deployed))
		}
	}
	return train
}

// reference is an in-process System trained like a default fexserve, used
// to check deterministic responses bit for bit. A -republish retrain
// trains one round from the same initial weights on the same corpus, so
// every snapshot after the first is the same model: first answers for
// snapshot 1, republished for every later one.
type reference struct {
	first       *fexiot.System
	republished *fexiot.System
	opts        fexiot.Options  // first's options (its Metrics registry included)
	train       []*fexiot.Graph // the corpus first was trained on
}

func newReference(withRepublish bool) (*reference, error) {
	opts := serveOptions()
	first, err := fexiot.New(opts)
	if err != nil {
		return nil, err
	}
	train := trainingGraphs(first)
	first.TrainCentral(train, serveRounds, servePairs)
	ref := &reference{first: first, opts: opts, train: train}
	if withRepublish {
		ref.republished, err = fexiot.New(serveOptions())
		if err != nil {
			return nil, err
		}
		ref.republished.TrainCentral(trainingGraphs(ref.republished), 1, servePairs)
	}
	return ref, nil
}

func (r *reference) forSeq(seq uint64) (*fexiot.System, error) {
	switch {
	case seq == 1:
		return r.first, nil
	case seq > 1 && r.republished != nil:
		return r.republished, nil
	}
	return nil, fmt.Errorf("no reference model for snapshot %d", seq)
}

// oracle keeps the first few mismatch messages for the report.
type oracle struct {
	samples []string
}

func (o *oracle) mismatch(format string, args ...any) {
	if len(o.samples) < 5 {
		o.samples = append(o.samples, fmt.Sprintf(format, args...))
	}
}

// seqTracker enforces that the snapshot sequence one client observes
// never decreases.
type seqTracker struct{ last uint64 }

func (t *seqTracker) check(seq uint64) error {
	if seq < t.last {
		return fmt.Errorf("snapshot_seq went back from %d to %d", t.last, seq)
	}
	t.last = seq
	return nil
}

// checkVerdict applies the invariants every detect-shaped answer obeys.
func checkVerdict(score float64, vulnerable bool, nodes int) error {
	if math.IsNaN(score) || score < 0 || score > 1 {
		return fmt.Errorf("score %v outside [0,1]", score)
	}
	if vulnerable != (score >= 0.5) {
		return fmt.Errorf("vulnerable=%v with score %v", vulnerable, score)
	}
	if nodes < 1 {
		return fmt.Errorf("nodes=%d", nodes)
	}
	return nil
}

func decodeDetect(body []byte, seq *seqTracker) (serve.DetectResponse, error) {
	var r serve.DetectResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return r, fmt.Errorf("detect body: %w", err)
	}
	if err := checkVerdict(r.Score, r.Vulnerable, r.Nodes); err != nil {
		return r, err
	}
	return r, seq.check(r.SnapshotSeq)
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// onlineCheck compares a detect answer for an event-carrying request with
// the reference's verdict on the same rules and events.
func (r *reference) onlineCheck(rs []*rules.Rule, log eventlog.Log, got serve.DetectResponse) error {
	sys, err := r.forSeq(got.SnapshotSeq)
	if err != nil {
		return err
	}
	g := r.first.BuildOnlineGraph(rs, log)
	if g.N() != got.Nodes {
		return fmt.Errorf("online detect: nodes %d, reference %d", got.Nodes, g.N())
	}
	v, err := sys.Detect(g)
	if err != nil {
		return err
	}
	if !sameBits(v.Score, got.Score) || !sameBits(v.DriftScore, got.DriftScore) ||
		v.Vulnerable != got.Vulnerable || v.Drifting != got.Drifting {
		return fmt.Errorf("online detect: got score %v drift %v, reference %v drift %v",
			got.Score, got.DriftScore, v.Score, v.DriftScore)
	}
	return nil
}

// maxInjected is the most rules the offline sampler grafts onto a
// rules-only graph (one crafted vulnerability pattern).
const maxInjected = 3

// checkExplain applies the invariants of a rules-only explanation. Its
// graph is sampled, so it cannot be compared with a reference; its nodes
// must still be distinct indices inside the largest graph the request can
// fuse into (at most 50 of the sent rules plus one injected pattern) and
// name one rule each.
func checkExplain(e serve.ExplainResponse, sent int) error {
	limit := min(sent, 50) + maxInjected
	seen := map[int]bool{}
	for _, i := range e.NodeIndices {
		if i < 0 || i >= limit || seen[i] {
			return fmt.Errorf("explain index %d outside a graph of at most %d nodes, or repeated", i, limit)
		}
		seen[i] = true
	}
	if len(e.RuleIDs) != len(e.NodeIndices) {
		return fmt.Errorf("explain: %d rule ids for %d nodes", len(e.RuleIDs), len(e.NodeIndices))
	}
	for _, v := range []float64{e.Score, e.Fidelity, e.Sparsity} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("explain: non-finite figure %v", v)
		}
	}
	if e.Sparsity < 0 || e.Sparsity > 1 {
		return fmt.Errorf("explain: sparsity %v outside [0,1]", e.Sparsity)
	}
	return nil
}

// verdictCheck compares a stream verdict with the reference's verdict on
// the window the session must hold.
func (r *reference) verdictCheck(rs []*rules.Rule, window eventlog.Log, got stream.VerdictResponse) error {
	if got.WindowEvents != len(window) {
		return fmt.Errorf("stream verdict: window %d events, reference %d", got.WindowEvents, len(window))
	}
	g := r.first.BuildOnlineGraph(rs, window)
	if g.N() != got.Nodes {
		return fmt.Errorf("stream verdict: nodes %d, reference %d", got.Nodes, g.N())
	}
	if g.N() == 0 {
		if got.Score != 0 || got.Vulnerable {
			return fmt.Errorf("stream verdict on an empty graph: score %v", got.Score)
		}
		return nil
	}
	sys, err := r.forSeq(got.SnapshotSeq)
	if err != nil {
		return err
	}
	v, err := sys.Detect(g)
	if err != nil {
		return err
	}
	if !sameBits(v.Score, got.Score) || !sameBits(v.DriftScore, got.DriftScore) ||
		v.Vulnerable != got.Vulnerable || v.Drifting != got.Drifting {
		return fmt.Errorf("stream verdict: got score %v drift %v, reference %v drift %v",
			got.Score, got.DriftScore, v.Score, v.DriftScore)
	}
	return nil
}
