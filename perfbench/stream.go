package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"fexiot/internal/stream"
)

const (
	streamScripts   = 24      // session scripts per run, spread over the home sizes
	republishPeriod = "2s"    // fexserve -republish cadence during stream-sessions
	streamOpen      = 2.0 / 3 // share of each block's seconds in the paced phase
	streamRate      = 150.0   // paced-phase requests per second, all clients together
)

// makeScripts builds the seeded session scripts over homes of every size:
// the population sorted by size, evenly spaced.
func makeScripts(seed int64, homes []*home) []*streamScript {
	bySize := append([]*home(nil), homes...)
	sort.SliceStable(bySize, func(i, j int) bool { return len(bySize[i].rules) < len(bySize[j].rules) })
	out := make([]*streamScript, streamScripts)
	for i := range out {
		out[i] = makeScript(i, bySize[i*len(bySize)/streamScripts], seed*7919+int64(i))
	}
	return out
}

// streamRecord is one sent stream request.
type streamRecord struct {
	script   *streamScript
	op       int
	r        result
	capacity bool // sent in a closed-loop capacity phase
}

func runStreamSessions(c *config) (*report, error) {
	homes := makeHomes(c.seed, populationHomes)
	scripts := makeScripts(c.seed, homes)
	ref, err := newReference(true)
	if err != nil {
		return nil, err
	}
	srv, setups, err := startServe(c, "-republish", republishPeriod)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	base := "http://" + srv.httpAddr

	var before promSample
	if c.trace {
		if before, err = scrape(srv.httpAddr); err != nil {
			return nil, err
		}
	}
	players := make([]*sessionPlayer, clients)
	for w := range players {
		players[w] = &sessionPlayer{cl: newClient(), base: base, scripts: scripts, k: w}
		defer players[w].cl.CloseIdleConnections()
	}
	blockSec := c.seconds / blocks
	openSec := blockSec * streamOpen
	interval := time.Second * clients / time.Duration(streamRate)
	var capSeconds float64
	for b := 0; b < blocks; b++ {
		start := time.Now().Add(5 * time.Millisecond)
		openEnd := start.Add(time.Duration(openSec * float64(time.Second)))
		// A session's requests depend on each other (an ingest, then the
		// read that reflects it), so each client paces its own sequence:
		// the next request goes out at its due time, or as soon as the
		// previous one answered when that is later, and is timed from
		// its send.
		phase(players, func(p *sessionPlayer) {
			for due := start; due.Before(openEnd); due = due.Add(interval) {
				time.Sleep(time.Until(due))
				p.step(false)
			}
		})
		capStart := time.Now()
		capEnd := capStart.Add(time.Duration((blockSec - openSec) * float64(time.Second)))
		phase(players, func(p *sessionPlayer) {
			for time.Now().Before(capEnd) {
				p.step(true)
			}
		})
		capSeconds += time.Since(capStart).Seconds()
	}
	var after promSample
	if c.trace {
		if after, err = scrape(srv.httpAddr); err != nil {
			return nil, err
		}
	}
	rss, err := srv.stop()
	if err != nil {
		return nil, err
	}

	rep := newReport()
	or := &oracle{}
	// Reads after a fresh batch re-fuse the window; reads of an unchanged
	// window are cache hits several times cheaper. Their mixture is
	// bimodal, so the gated figure is the fresh reads' median.
	verdicts, fresh, ingests := &timing{}, &timing{}, &timing{}
	reflected := 0
	memo := map[string]error{}
	for _, p := range players {
		var seq seqTracker
		pending := 0 // events of fresh ingests not yet read back by a verdict
		for _, rec := range p.recs {
			op := rec.script.ops[rec.op]
			rep.attempted++
			err := checkStream(ref, rec, &seq, memo)
			if err != nil {
				rep.failed++
				if isMismatch(err) {
					rep.incorrect++
					or.mismatch("script %d op %d: %v", rec.script.id, rec.op, err)
				}
			}
			// Latencies come from the open-loop phases, throughput from
			// the capacity phases.
			switch op.kind {
			case opIngest, opReplay:
				if !rec.capacity {
					ingests.record(rec.r.lat.Seconds(), err)
				}
				if err == nil && op.kind == opIngest {
					pending += len(op.batch)
				}
			case opVerdict, opRepeat:
				if !rec.capacity {
					verdicts.record(rec.r.lat.Seconds(), err)
					if op.kind == opVerdict {
						fresh.record(rec.r.lat.Seconds(), err)
					}
				}
				if err == nil {
					if rec.capacity {
						reflected += pending
					}
					pending = 0
				}
			case opCreate:
				pending = 0
			}
		}
	}
	rep.notes = or.samples
	eventsPerS := ratio(float64(reflected), capSeconds)
	vs, fs, is := verdicts.summarize(), fresh.summarize(), ingests.summarize()
	printTiming(c.log, "stream_verdict", vs, 1e3, "ms")
	printTiming(c.log, "stream_verdict_fresh", fs, 1e3, "ms")
	printTiming(c.log, "stream_ingest", is, 1e3, "ms")
	printMetric(c.log, "stream_events_per_s", eventsPerS, "1/s",
		fmt.Sprintf("(%d events read back by a verified verdict in the capacity phases, %d closed-loop clients)",
			reflected, clients))
	setup := median(setups)
	printMetric(c.log, "setup_s", setup, "s", fmt.Sprintf("(median of %d fexserve launches to first /readyz 200)", len(setups)))
	printMetric(c.log, "rss_peak_mb", rss, "MB", "(fexserve VmHWM)")
	rep.e2e["setup_s"] = metric{setup, "s"}
	rep.e2e["op_p50_ms"] = metric{fs.p50 * 1e3, "ms"}
	rep.e2e["side_p50_ms"] = metric{is.p50 * 1e3, "ms"}
	rep.e2e["capacity_per_s"] = metric{eventsPerS, "1/s"}
	rep.e2e["rss_peak_mb"] = metric{rss, "MB"}
	if c.trace {
		hits := delta(before, after, "fexiot_stream_feature_cache_hits_total")
		misses := delta(before, after, "fexiot_stream_feature_cache_misses_total")
		rep.layers["fusion.feature_cache_hit_ratio"] = metric{ratio(hits, hits+misses), "ratio"}
		if err := traceStream(c, rep, ref, scripts); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// sessionPlayer plays one client's share of the session scripts (every
// clients-th script, round robin), one request per step, keeping its place
// across phases.
type sessionPlayer struct {
	cl      *http.Client
	base    string
	scripts []*streamScript
	k       int    // script being played, as an index into scripts modulo its length
	op      int    // next op of that script
	id      string // its live session
	recs    []streamRecord
}

// step sends the next request and times it from its send.
func (p *sessionPlayer) step(capacity bool) {
	s := p.scripts[p.k%len(p.scripts)]
	op := s.ops[p.op]
	var k call
	switch op.kind {
	case opCreate:
		k = call{method: http.MethodPost, path: "/v1/streams", ctype: "application/json", body: s.create}
	case opIngest, opReplay:
		k = call{method: http.MethodPost, path: "/v1/streams/" + p.id + "/events",
			ctype: "application/x-ndjson", body: op.body}
	case opVerdict, opRepeat:
		k = call{method: http.MethodGet, path: "/v1/streams/" + p.id}
	case opDelete:
		k = call{method: http.MethodDelete, path: "/v1/streams/" + p.id}
	}
	sent := time.Now()
	st, b, err := send(p.cl, p.base, k)
	r := result{status: st, body: b, err: err, lat: time.Since(sent)}
	p.recs = append(p.recs, streamRecord{script: s, op: p.op, r: r, capacity: capacity})
	p.op++
	if op.kind == opCreate {
		var cr stream.CreateResponse
		if r.ok() && json.Unmarshal(b, &cr) == nil && cr.ID != "" {
			p.id = cr.ID
		} else {
			p.op = len(s.ops) // no session: the script ends here
		}
	}
	if p.op == len(s.ops) {
		p.k += clients
		p.op = 0
	}
}

// phase runs fn for every player concurrently and waits for all.
func phase(players []*sessionPlayer, fn func(p *sessionPlayer)) {
	var wg sync.WaitGroup
	for _, p := range players {
		wg.Add(1)
		go func(p *sessionPlayer) {
			defer wg.Done()
			fn(p)
		}(p)
	}
	wg.Wait()
}

// mismatchError is a stream answer that contradicts the reference.
type mismatchError struct{ error }

func isMismatch(err error) bool {
	_, ok := err.(mismatchError)
	return ok
}

// checkStream verifies one stream answer. Verdicts on the same window and
// snapshot recur across script cycles, so each distinct answer is compared
// with the reference once.
func checkStream(ref *reference, rec streamRecord, seq *seqTracker, memo map[string]error) error {
	r := rec.r
	if r.err != nil {
		return r.err
	}
	if !r.ok() {
		return fmt.Errorf("status %d", r.status)
	}
	op := rec.script.ops[rec.op]
	switch op.kind {
	case opIngest, opReplay:
		var got stream.IngestResponse
		if err := json.Unmarshal(r.body, &got); err != nil {
			return mismatchError{err}
		}
		want := len(rec.script.window(op.fresh))
		if got.Ingested != len(op.batch) || got.Changed != (op.kind == opIngest) || got.WindowEvents != want {
			return mismatchError{fmt.Errorf("ingest: ingested %d changed %v window %d; want %d %v %d",
				got.Ingested, got.Changed, got.WindowEvents, len(op.batch), op.kind == opIngest, want)}
		}
	case opVerdict, opRepeat:
		var got stream.VerdictResponse
		if err := json.Unmarshal(r.body, &got); err != nil {
			return mismatchError{err}
		}
		if err := seq.check(got.SnapshotSeq); err != nil {
			return mismatchError{err}
		}
		if got.Nodes > 0 {
			if err := checkVerdict(got.Score, got.Vulnerable, got.Nodes); err != nil {
				return mismatchError{err}
			}
		}
		key := fmt.Sprintf("%d|%d|%d|%v|%v|%v|%d", rec.script.id, op.fresh, min(got.SnapshotSeq, 2),
			got.Score, got.DriftScore, got.Vulnerable, got.Nodes)
		err, ok := memo[key]
		if !ok {
			err = ref.verdictCheck(rec.script.home.rules, rec.script.window(op.fresh), got)
			memo[key] = err
		}
		if err != nil {
			return mismatchError{err}
		}
	}
	return nil
}
