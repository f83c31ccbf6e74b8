package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"fexiot/internal/serve"
)

// errMismatch marks an answer the oracle rejected.
var errMismatch = errors.New("oracle mismatch")

// Serving workload constants. The offered rates sit well under what a
// 2-core host serves, so the open loop measures latency, not backlog; the
// capacity phases then measure the most the same server completes within
// the latency limit with `clients` closed-loop callers.
const (
	setupRuns    = 5                      // fexserve launches per run; set-up time is their median
	detectOpen   = 2.0 / 3                // detect-offline: share of the measured seconds in the open loop
	detectRate   = 200.0                  // detect-offline open-loop requests per second
	detectLimit  = 100 * time.Millisecond // detect capacity latency limit
	mixOpen      = 4.0 / 5                // explain-mix: share of the measured seconds in the open loop
	mixRate      = 80.0                   // explain-mix open-loop requests per second
	mixLimit     = 250 * time.Millisecond // explain-mix capacity latency limit
	explainEvery = 4                      // every fourth mix request is an explain

	// Explain cost depends on each home's content far more than detect
	// cost does: over 96-home populations the median explain took
	// 4.4–9.1 ms depending on the seed. Explains therefore draw from a
	// population four times larger, generated the same way, so a run
	// explains a few hundred distinct homes and its median moves less
	// with the seed.
	explainPopulation = 4 * populationHomes

	explainSeedOffset = 1_000_003

	// replayExplainEvery: detect-offline's traced pass also explains every
	// n-th traced request's graph, so the explain layer is measured on a
	// workload BENCHMARK.json runs (explain-mix is not among them).
	replayExplainEvery = 8
)

// startServe launches fexserve setupRuns times from its default flags
// (plus extra), records each launch's time to the first 200 from /readyz,
// and keeps the last instance running for the workload.
func startServe(c *config, extra ...string) (*server, []float64, error) {
	var setups []float64
	for i := 0; ; i++ {
		addr, err := freePort()
		if err != nil {
			return nil, nil, err
		}
		s, err := launch(c.bin("fexserve"), addr, append([]string{"-addr", addr}, extra...)...)
		if err != nil {
			return nil, nil, err
		}
		if err := s.waitReady(60 * time.Second); err != nil {
			s.stop()
			return nil, nil, err
		}
		setups = append(setups, s.setup.Seconds())
		if i == setupRuns-1 {
			return s, setups, nil
		}
		if _, err := s.stop(); err != nil {
			return nil, nil, err
		}
	}
}

// reqKind is what a serving request asks and how the oracle checks it.
type reqKind int

const (
	kDetect       reqKind = iota // rules-only detect: invariants only (the graph is sampled)
	kDetectEvents                // detect with an event log: bit-identical to the reference
	kExplain                     // rules-only explain: invariants only
)

type servingCall struct {
	call
	kind reqKind
	home *home
	ev   *eventRequest
}

func detectCall(h *home) servingCall {
	return servingCall{call: call{method: http.MethodPost, path: "/v1/detect",
		ctype: "application/json", body: h.body}, kind: kDetect, home: h}
}

func explainCall(h *home) servingCall {
	return servingCall{call: call{method: http.MethodPost, path: "/v1/explain",
		ctype: "application/json", body: h.body}, kind: kExplain, home: h}
}

func eventDetectCall(ev *eventRequest) servingCall {
	return servingCall{call: call{method: http.MethodPost, path: "/v1/detect",
		ctype: "application/json", body: ev.body}, kind: kDetectEvents, home: ev.home, ev: ev}
}

func calls(sc []servingCall) []call {
	out := make([]call, len(sc))
	for i, s := range sc {
		out[i] = s.call
	}
	return out
}

// checker verifies serving answers. Event-carrying requests recur, so each
// distinct (request, answer) pair is compared with the reference once.
type checker struct {
	ref  *reference
	or   *oracle
	seen map[string]error
}

func newChecker(ref *reference) *checker {
	return &checker{ref: ref, or: &oracle{}, seen: map[string]error{}}
}

// check returns nil when r is a correct 2xx answer to sc.
func (k *checker) check(sc servingCall, r result, seq *seqTracker) error {
	if r.err != nil {
		return r.err
	}
	if !r.ok() {
		return fmt.Errorf("status %d", r.status)
	}
	var err error
	switch sc.kind {
	case kDetect:
		_, err = decodeDetect(r.body, seq)
	case kDetectEvents:
		var d serve.DetectResponse
		if d, err = decodeDetect(r.body, seq); err == nil {
			err = k.memo(sc, r.body, func() error {
				return k.ref.onlineCheck(sc.home.rules, sc.ev.events, d)
			})
		}
	case kExplain:
		var e serve.ExplainResponse
		if err = json.Unmarshal(r.body, &e); err == nil {
			if err = seq.check(e.SnapshotSeq); err == nil {
				err = checkExplain(e, len(sc.home.rules))
			}
		}
	}
	if err != nil {
		k.or.mismatch("%s home %d: %v", sc.path, sc.home.idx, err)
		return errMismatch
	}
	return nil
}

func (k *checker) memo(sc servingCall, body []byte, fn func() error) error {
	key := fmt.Sprintf("%d|%d|%s", sc.kind, sc.home.idx, body)
	err, ok := k.seen[key]
	if !ok {
		err = fn()
		k.seen[key] = err
	}
	return err
}

// tally accumulates a phase's outcomes per operation type.
type tally struct {
	attempted, failed, incorrect int
	timings                      map[reqKind]*timing
	okWithin                     int // correct 2xx answers within the phase's latency limit
}

func newTally() *tally { return &tally{timings: map[reqKind]*timing{}} }

func (t *tally) add(kind reqKind, r result, err error, limit time.Duration) {
	tm := t.timings[kind]
	if tm == nil {
		tm = &timing{}
		t.timings[kind] = tm
	}
	t.attempted++
	if err != nil {
		t.failed++
		if err == errMismatch {
			t.incorrect++
		}
		tm.fail()
		return
	}
	tm.add(r.lat.Seconds())
	if r.lat <= limit {
		t.okWithin++
	}
}

// detects returns the detect timing across both detect kinds.
func (t *tally) detects() *timing {
	out := &timing{}
	for _, k := range []reqKind{kDetect, kDetectEvents} {
		if tm := t.timings[k]; tm != nil {
			out.samples = append(out.samples, tm.samples...)
		}
	}
	return out
}

// servingRun is the shared shape of detect-offline and explain-mix: set
// up, warm, open loop at a fixed rate, closed-loop capacity phase.
type servingRun struct {
	open     []servingCall
	openFrac float64 // share of each block's seconds in the open loop
	rate     float64
	capacity [][]servingCall // one request cycle per closed-loop client
	limit    time.Duration
	warm     []servingCall
	ref      *reference
}

// blocks is how many alternations of an open-loop phase and a capacity
// phase a serving run makes. The host's speed drifts over seconds;
// alternating the phases exposes both to the same drift.
const blocks = 5

type servingResult struct {
	setups     []float64
	warm       *tally
	open, cap  *tally
	capSeconds float64
	lateness   *timing
	rssMB      float64
	shedShare  float64 // traced runs: Δfexiot_serve_shed_total / requests sent
	or         *oracle
}

func (sr *servingRun) run(c *config) (*servingResult, error) {
	srv, setups, err := startServe(c)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	base := "http://" + srv.httpAddr
	out := &servingResult{setups: setups, warm: newTally(), open: newTally(), cap: newTally(),
		lateness: &timing{}}
	chk := newChecker(sr.ref)
	out.or = chk.or

	// Warm-up: every distinct request once, sequentially and untimed, so
	// caches fill and lazy set-up ends before the clock starts. Outcomes
	// still count as operations.
	wc := newClient()
	var warmSeq seqTracker
	for _, sc := range sr.warm {
		st, b, err := send(wc, base, sc.call)
		r := result{status: st, body: b, err: err}
		out.warm.add(sc.kind, r, chk.check(sc, r, &warmSeq), time.Hour)
	}
	wc.CloseIdleConnections()

	var before promSample
	if c.trace {
		if before, err = scrape(srv.httpAddr); err != nil {
			return nil, err
		}
	}

	capSeqs := make([][]call, clients)
	for w := range capSeqs {
		capSeqs[w] = calls(sr.capacity[w])
	}
	blockSec := c.seconds / blocks
	openSec := blockSec * sr.openFrac
	n := int(sr.rate * openSec)
	type capRecord struct {
		i int
		r result
	}
	type rawBlock struct {
		open    []result
		owner   []int
		cap     [][]capRecord
		capSecs float64
	}
	raw := make([]rawBlock, blocks)
	sent := 0
	next := make([]int, clients)
	for b := range raw {
		rb := &raw[b]
		rb.open, rb.owner = openLoop(base, calls(sr.open[b*n:(b+1)*n]), sr.rate,
			time.Now().Add(5*time.Millisecond))
		rb.cap = make([][]capRecord, clients)
		capStart := time.Now()
		closedLoop(base, capSeqs, next, capStart.Add(time.Duration((blockSec-openSec)*float64(time.Second))),
			func(w, i int, r result) { rb.cap[w] = append(rb.cap[w], capRecord{i, r}) })
		rb.capSecs = time.Since(capStart).Seconds()
		sent += n
		for w := range rb.cap {
			sent += len(rb.cap[w])
		}
	}

	if c.trace {
		after, err := scrape(srv.httpAddr)
		if err != nil {
			return nil, err
		}
		out.shedShare = delta(before, after, "fexiot_serve_shed_total") / float64(sent)
	}
	if out.rssMB, err = srv.stop(); err != nil {
		return nil, err
	}

	// The oracle runs after the server stopped, so checking never competes
	// with the measured requests for the CPU.
	openSeq := make([]seqTracker, clients)
	capSeq := make([]seqTracker, clients)
	for b, rb := range raw {
		for i, r := range rb.open {
			sc := sr.open[b*n+i]
			out.open.add(sc.kind, r, chk.check(sc, r, &openSeq[rb.owner[i]]), time.Hour)
			out.lateness.add(r.late.Seconds())
		}
		for w := range rb.cap {
			for _, cr := range rb.cap[w] {
				sc := sr.capacity[w][cr.i]
				out.cap.add(sc.kind, cr.r, chk.check(sc, cr.r, &capSeq[w]), sr.limit)
			}
		}
		out.capSeconds += rb.capSecs
	}
	return out, nil
}

func runDetectOffline(c *config) (*report, error) {
	homes := makeHomes(c.seed, populationHomes)
	r := rand.New(rand.NewSource(c.seed + 1))
	sr := &servingRun{openFrac: detectOpen, rate: detectRate, limit: detectLimit,
		open: detectSequence(r, homes, int(detectRate*c.seconds)+1)}
	for w := 0; w < clients; w++ {
		sr.capacity = append(sr.capacity, detectSequence(r, homes, 4*populationHomes))
	}
	for _, h := range homes {
		sr.warm = append(sr.warm, detectCall(h))
	}
	var err error
	if sr.ref, err = newReference(false); err != nil {
		return nil, err
	}
	res, err := sr.run(c)
	if err != nil {
		return nil, err
	}
	rep := newReport()
	det := res.open.detects().summarize()
	capDet := res.cap.detects().summarize()
	capacity := float64(res.cap.okWithin) / res.capSeconds
	printTiming(c.log, "detect", det, 1e3, "ms")
	printTiming(c.log, "detect_capacity_phase", capDet, 1e3, "ms")
	printMetric(c.log, "detect_capacity_rps", capacity, "1/s",
		fmt.Sprintf("(2xx within %v per second, %d closed-loop clients)", detectLimit, clients))
	fillServing(c, rep, res, det, capDet, capacity)
	if c.trace {
		if err := traceServing(c, rep, sr.ref, sr.open, res, replayExplainEvery); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

func runExplainMix(c *config) (*report, error) {
	homes := makeHomes(c.seed, populationHomes)
	explainHomes := makeHomes(c.seed+explainSeedOffset, explainPopulation)
	evs := make([]*eventRequest, len(homes))
	for i, h := range homes {
		evs[i] = makeEventRequest(h, c.seed*1000+int64(i))
	}
	r := rand.New(rand.NewSource(c.seed + 2))
	sr := &servingRun{openFrac: mixOpen, rate: mixRate, limit: mixLimit,
		open: mixSequence(r, homes, explainHomes, evs, int(mixRate*c.seconds)+1)}
	for w := 0; w < clients; w++ {
		sr.capacity = append(sr.capacity, mixSequence(r, homes, explainHomes, evs,
			explainEvery*explainPopulation/clients))
	}
	for i, h := range homes {
		sr.warm = append(sr.warm, detectCall(h), eventDetectCall(evs[i]))
	}
	var err error
	if sr.ref, err = newReference(false); err != nil {
		return nil, err
	}
	res, err := sr.run(c)
	if err != nil {
		return nil, err
	}
	rep := newReport()
	ex := timingOf(res.open, kExplain).summarize()
	det := res.open.detects().summarize()
	capacity := float64(res.cap.okWithin) / res.capSeconds
	printTiming(c.log, "explain", ex, 1e3, "ms")
	printTiming(c.log, "detect", det, 1e3, "ms")
	printMetric(c.log, "mix_capacity_rps", capacity, "1/s",
		fmt.Sprintf("(2xx within %v per second, %d closed-loop clients)", mixLimit, clients))
	fillServing(c, rep, res, ex, det, capacity)
	if c.trace {
		if err := traceServing(c, rep, sr.ref, sr.open, res, 0); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// detectSequence is n rules-only detects cycling through the population.
func detectSequence(r *rand.Rand, homes []*home, n int) []servingCall {
	out := make([]servingCall, 0, n)
	for _, i := range cycle(r, n, len(homes)) {
		out = append(out, detectCall(homes[i]))
	}
	return out
}

// mixSequence is n explain-mix requests: every explainEvery-th a
// rules-only explain of the next explain home, one in ten a detect
// carrying a home's event log, the rest rules-only detects. Explains stay
// rules-only: on the denser online graphs one explain can take seconds.
func mixSequence(r *rand.Rand, homes, explainHomes []*home, evs []*eventRequest, n int) []servingCall {
	ex := cycle(r, n/explainEvery+1, len(explainHomes))
	det := cycle(r, n, len(homes))
	out := make([]servingCall, 0, n)
	for j := 0; j < n; j++ {
		switch {
		case j%explainEvery == explainEvery-1:
			out = append(out, explainCall(explainHomes[ex[j/explainEvery]]))
		case j%10 == 2:
			out = append(out, eventDetectCall(evs[det[j]]))
		default:
			out = append(out, detectCall(homes[det[j]]))
		}
	}
	return out
}

func timingOf(t *tally, k reqKind) *timing {
	if tm := t.timings[k]; tm != nil {
		return tm
	}
	return &timing{}
}

// fillServing records the shared end-to-end slots of a serving workload.
func fillServing(c *config, rep *report, res *servingResult, op, side summary, capacity float64) {
	for _, t := range []*tally{res.warm, res.open, res.cap} {
		rep.attempted += t.attempted
		rep.failed += t.failed
		rep.incorrect += t.incorrect
	}
	rep.notes = res.or.samples
	setup := median(res.setups)
	printMetric(c.log, "setup_s", setup, "s", fmt.Sprintf("(median of %d fexserve launches to first /readyz 200)", len(res.setups)))
	printMetric(c.log, "rss_peak_mb", res.rssMB, "MB", "(fexserve VmHWM)")
	rep.e2e["setup_s"] = metric{setup, "s"}
	rep.e2e["op_p50_ms"] = metric{op.p50 * 1e3, "ms"}
	rep.e2e["side_p50_ms"] = metric{side.p50 * 1e3, "ms"}
	rep.e2e["capacity_per_s"] = metric{capacity, "1/s"}
	rep.e2e["rss_peak_mb"] = metric{res.rssMB, "MB"}
}
