package main

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"fexiot/internal/autodiff"
	"fexiot/internal/embed"
	"fexiot/internal/fedproto"
	"fexiot/internal/fedproto/codec"
	"fexiot/internal/fusion"
	"fexiot/internal/gnn"
	"fexiot/internal/graph"
	"fexiot/internal/rules"
)

// Federation constants: fexserver's default -rounds and -clients (= nproc),
// and fexclient's default local dataset and training size.
const (
	fedRounds = 10
	fedGraphs = 120
	fedPairs  = 150
	fedPool   = 50
	fedCodec  = codec.Q8
)

// fedData is one in-process client's local dataset, built as fexclient
// builds it. Client i draws from archetype i in every seed, so the data
// is non-i.i.d. across clients and the clients' relative load does not
// change with the seed.
type fedData struct {
	id    int
	enc   *embed.Encoder
	train []*graph.Graph
}

func makeFedData(seed int64) []*fedData {
	archs := rules.Archetypes()
	out := make([]*fedData, clients)
	for id := range out {
		cseed := seed*7919 + int64(id)*104729 + 17
		arch := archs[id%len(archs)]
		enc := embed.NewEncoder(48, 64)
		pool := rules.NewGenerator(cseed, arch, fmt.Sprintf("c%d-", id)).RuleSet(fedPool)
		b := fusion.NewBuilder(cseed+1, enc)
		var local []*graph.Graph
		for i := 0; i < fedGraphs; i++ {
			local = append(local, b.OfflineSized(pool))
		}
		out[id] = &fedData{id: id, enc: enc, train: local[:len(local)*8/10]}
	}
	return out
}

// clientTimes are one client's per-round timestamps.
type clientTimes struct {
	start, trained []time.Time // callback entry and return, by round
	trainDur       []time.Duration
	end            time.Time // session return
	outBytes       int64
	err            error
	bad            []string // protocol or numeric faults the client saw
}

// federation is one fexserver launch with its in-process clients.
type federation struct {
	setup     time.Duration
	rounds    []time.Duration // wall time per round
	trainMax  []time.Duration // per round: slowest client's local training
	uploadB   float64         // client→server bytes per round
	rssMB     float64
	updates   int
	wall      time.Duration // first round start → last round end
	aggMs     float64       // traced: mean aggregation time per round (from /metrics)
	compRatio float64       // traced: raw/encoded update bytes (from /metrics)
	failed    int
	notes     []string
}

// runOneFederation launches fexserver and runs every client session to
// completion. tr, when non-nil, records spans around each client's local
// training and around a q8 encode of its round delta.
func runOneFederation(c *config, data []*fedData, tr *tracer) (*federation, error) {
	fedAddr, err := freePort()
	if err != nil {
		return nil, err
	}
	httpAddr, err := freePort()
	if err != nil {
		return nil, err
	}
	srv, err := launch(c.bin("fexserver"), httpAddr, "-addr", fedAddr, "-http", httpAddr,
		"-codec", fedCodec)
	if err != nil {
		return nil, err
	}
	defer srv.stop()

	times := make([]*clientTimes, len(data))
	var scraped promSample
	var scrapeErr error
	var wg sync.WaitGroup
	for i, d := range data {
		times[i] = &clientTimes{}
		wg.Add(1)
		go func(d *fedData, ct *clientTimes) {
			defer wg.Done()
			model := gnn.NewGIN(fusion.WordFeatureDim(d.enc), 24, 16, 100)
			opt := autodiff.NewAdam(0.005)
			cfg := gnn.DefaultTrainConfig(c.seed)
			cfg.LR = 0.005
			cfg.PairsPerEpoch = fedPairs
			cdc, _ := codec.New(fedCodec)
			stats, err := fedproto.RunClientSession(context.Background(), fedproto.ClientConfig{
				Addr:           fedAddr,
				ID:             d.id,
				DataSize:       len(d.train),
				InitialBackoff: 2 * time.Millisecond,
				MaxBackoff:     20 * time.Millisecond,
				MaxAttempts:    1000,
				OpTimeout:      time.Minute,
				Seed:           c.seed,
				Codec:          fedCodec,
			}, model.Params(), func(round int) map[int]float64 {
				if round != len(ct.start) {
					ct.bad = append(ct.bad, fmt.Sprintf("client %d: round %d after %d rounds", d.id, round, len(ct.start)))
				}
				ct.start = append(ct.start, time.Now())
				if tr != nil && d.id == 0 && round == fedRounds-1 {
					// fexserver exits after its last round, so its counters
					// are read while the last round is still open.
					scraped, scrapeErr = scrape(httpAddr)
				}
				before := model.Params().Clone()
				cfg.Seed = c.seed + int64(round)
				root := tr.begin("fed.round", 0, d.id*1000+round)
				t0 := time.Now()
				tr.do("fed.local_train", root, d.id*1000+round, func(int) {
					gnn.TrainContrastive(model, d.train, cfg, opt)
				})
				ct.trainDur = append(ct.trainDur, time.Since(t0))
				norms := fedproto.LayerNorms(before, model.Params())
				if tr != nil {
					tr.do("codec.encode", root, d.id*1000+round, func(int) {
						encodeDelta(cdc, model.Params(), before)
					})
				}
				tr.end(root)
				for l, v := range norms {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						ct.bad = append(ct.bad, fmt.Sprintf("client %d round %d: layer %d norm %v", d.id, round, l, v))
					}
				}
				ct.trained = append(ct.trained, time.Now())
				return norms
			})
			ct.end = time.Now()
			ct.outBytes = stats.OutBytes
			ct.err = err
		}(d, times[i])
	}
	wg.Wait()
	waitErr := srv.wait(time.Minute)
	f := &federation{}
	if f.rssMB, err = srv.stop(); err != nil {
		return nil, err
	}

	// Correctness: every session ends cleanly after exactly fedRounds
	// rounds, the server reports the same, and no update went non-finite.
	if waitErr != nil {
		f.notes = append(f.notes, waitErr.Error())
	} else if !strings.Contains(srv.output(), fmt.Sprintf("training complete: %d rounds", fedRounds)) {
		f.notes = append(f.notes, "fexserver did not report "+fmt.Sprint(fedRounds)+" rounds:\n"+srv.output())
	}
	for _, ct := range times {
		if ct.err != nil {
			f.notes = append(f.notes, ct.err.Error())
		}
		if len(ct.start) != fedRounds {
			f.notes = append(f.notes, fmt.Sprintf("client ran %d of %d rounds", len(ct.start), fedRounds))
		}
		f.notes = append(f.notes, ct.bad...)
	}
	if len(f.notes) > 0 {
		f.failed = 1
		return f, nil
	}

	first := times[0].start[0]
	for _, ct := range times {
		if ct.start[0].After(first) {
			first = ct.start[0]
		}
	}
	f.setup = first.Sub(srv.launched)
	var up int64
	for r := 0; r < fedRounds; r++ {
		lo, hi := times[0].start[r], time.Time{}
		var slow time.Duration
		for _, ct := range times {
			end := ct.end
			if r+1 < fedRounds {
				end = ct.start[r+1]
			}
			if ct.start[r].Before(lo) {
				lo = ct.start[r]
			}
			if end.After(hi) {
				hi = end
			}
			slow = max(slow, ct.trainDur[r])
		}
		f.rounds = append(f.rounds, hi.Sub(lo))
		f.trainMax = append(f.trainMax, slow)
		f.wall += hi.Sub(lo)
	}
	for _, ct := range times {
		up += ct.outBytes
	}
	f.uploadB = float64(up) / fedRounds
	f.updates = fedRounds * len(times)
	if tr != nil {
		if scrapeErr != nil {
			return nil, scrapeErr
		}
		f.aggMs = ratio(scraped.sum("fexiot_aggregate_duration_seconds_sum"),
			scraped.sum("fexiot_aggregate_duration_seconds_count")) * 1e3
		f.compRatio = ratio(scraped.sum("fexiot_update_raw_bytes_total"),
			scraped.sum("fexiot_update_encoded_bytes_total"))
	}
	return f, nil
}

// encodeDelta q8-encodes every parameter's change since before, the work a
// client's update encoding does each round.
func encodeDelta(cdc codec.Codec, p, before *autodiff.ParamSet) {
	for _, name := range p.Names() {
		cur, prev := p.Get(name).Data(), before.Get(name).Data()
		d := make([]float64, len(cur))
		for i := range cur {
			d[i] = cur[i] - prev[i]
		}
		cdc.Encode(d)
	}
}

func runFederation(c *config) (*report, error) {
	data := makeFedData(c.seed)
	rep := newReport()
	var setups, rounds, stragglers, uploads, rsses []float64
	var wall time.Duration
	updates := 0
	// Traced runs alternate untraced and traced federations; the round
	// times of the two halves give the tracing overhead.
	var tracedRounds, plainRounds []float64
	var layerFeds []*federation
	tr := newTracer()
	deadline := time.Now().Add(time.Duration(c.seconds * float64(time.Second)))
	for k := 0; time.Now().Before(deadline) || k < 2; k++ {
		var t *tracer
		if c.trace && k%2 == 1 {
			t = tr
		}
		f, err := runOneFederation(c, data, t)
		if err != nil {
			return nil, err
		}
		rep.attempted += fedRounds * clients
		if f.failed > 0 {
			rep.failed += fedRounds * clients
			rep.incorrect += fedRounds * clients
			rep.notes = append(rep.notes, f.notes...)
			continue
		}
		setups = append(setups, f.setup.Seconds())
		for _, d := range f.rounds {
			rounds = append(rounds, d.Seconds())
			if t != nil {
				tracedRounds = append(tracedRounds, d.Seconds())
			} else {
				plainRounds = append(plainRounds, d.Seconds())
			}
		}
		for _, d := range f.trainMax {
			stragglers = append(stragglers, d.Seconds())
		}
		uploads = append(uploads, f.uploadB)
		rsses = append(rsses, f.rssMB)
		wall += f.wall
		updates += f.updates
		if t != nil {
			layerFeds = append(layerFeds, f)
		}
	}
	rt := (&timing{samples: rounds}).summarize()
	st := (&timing{samples: stragglers}).summarize()
	capacity := ratio(float64(updates), wall.Seconds())
	printTiming(c.log, "fed_round", rt, 1, "s")
	printMetric(c.log, "fed_round_count", float64(len(rounds)), "count", fmt.Sprintf("(%d federations of %d rounds)", len(setups), fedRounds))
	printTiming(c.log, "fed_straggler_train", st, 1e3, "ms")
	printMetric(c.log, "fed_upload_bytes_per_round", median(uploads), "bytes", "(client→server wire bytes, all clients, "+fedCodec+")")
	printMetric(c.log, "fed_updates_per_s", capacity, "1/s", "(client updates aggregated per second of round time)")
	printMetric(c.log, "setup_s", median(setups), "s", fmt.Sprintf("(median of %d launches to all clients admitted)", len(setups)))
	printMetric(c.log, "rss_peak_mb", median(rsses), "MB", "(fexserver VmHWM, median over launches)")
	rep.e2e["setup_s"] = metric{median(setups), "s"}
	rep.e2e["op_p50_ms"] = metric{rt.p50 * 1e3, "ms"}
	rep.e2e["side_p50_ms"] = metric{st.p50 * 1e3, "ms"}
	rep.e2e["capacity_per_s"] = metric{capacity, "1/s"}
	rep.e2e["rss_peak_mb"] = metric{median(rsses), "MB"}
	if c.trace {
		traceFederation(c, rep, tr, layerFeds, median(tracedRounds), median(plainRounds))
		if err := tr.write(spanPath(c)); err != nil {
			return nil, err
		}
	}
	return rep, nil
}
