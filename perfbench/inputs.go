package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"

	"fexiot/internal/eventlog"
	"fexiot/internal/rules"
)

// The home population every serving workload draws from. Sizes are spread
// evenly over [minRules, maxRules] in every seed, so seeds differ in rule
// content, not in how much work the mix holds; a quarter of the homes are
// larger than the 50 rules a rules-only graph can hold today.
const (
	populationHomes = 96
	minRules        = 8
	maxRules        = 64
)

// home is one generated smart-home deployment.
type home struct {
	idx   int
	arch  string
	rules []*rules.Rule
	body  []byte // the rules-only /v1/detect body
}

// makeHomes generates a seeded population of n homes, cycling through
// every archetype, in a seeded order.
func makeHomes(seed int64, n int) []*home {
	r := rand.New(rand.NewSource(seed))
	archs := rules.Archetypes()
	out := make([]*home, n)
	for i, p := range r.Perm(n) {
		size := minRules + p*(maxRules-minRules)/(n-1)
		a := archs[i%len(archs)]
		rs := rules.NewGenerator(r.Int63(), a, fmt.Sprintf("h%d-", i)).RuleSet(size)
		out[i] = &home{idx: i, arch: a.Name, rules: rs, body: mustJSON(map[string]any{"rules": rs})}
	}
	return out
}

// cycle returns n indices into a population of m homes, made of
// back-to-back seeded permutations: every home recurs, so identical
// requests repeat, and every seed sends each home equally often.
func cycle(r *rand.Rand, n, m int) []int {
	out := make([]int, 0, n+m)
	for len(out) < n {
		out = append(out, r.Perm(m)...)
	}
	return out[:n]
}

// homeLog simulates a home for steps simulated seconds, optionally injects
// one attack class, and cleans the log as a deployment would before
// sending it.
func homeLog(h *home, steps, seed int64, attack bool) eventlog.Log {
	log := eventlog.NewSimulator(h.rules, seed).Run(steps)
	if attack {
		kind := eventlog.Attack(seed % int64(eventlog.NumAttacks))
		if kind < 0 {
			kind = -kind
		}
		log = eventlog.Inject(log, kind, h.rules, 0.3, seed+1)
	}
	return eventlog.Clean(log)
}

// eventRequest is a /v1/detect or /v1/explain body that carries an event
// log, so the server fuses a deterministic online graph.
type eventRequest struct {
	home   *home
	events eventlog.Log
	body   []byte
}

func makeEventRequest(h *home, seed int64) *eventRequest {
	log := homeLog(h, 600, seed, seed%2 == 0)
	return &eventRequest{home: h, events: log,
		body: mustJSON(map[string]any{"rules": h.rules, "events": log})}
}

// Stream session scripts.
const (
	sessionSeconds = 5400 // simulated seconds per session: past the 3600 s window age
	batchSeconds   = 300  // event time covered by one NDJSON batch
	windowAge      = 3600 // fexserve's default -window-age
	windowEvents   = 4096 // fexserve's default -window-events
)

type streamOpKind int

const (
	opCreate  streamOpKind = iota
	opIngest               // a fresh batch, next in event time
	opReplay               // a batch of events already past the window age
	opVerdict              // the read after a fresh batch: the window changed, so it re-fuses
	opRepeat               // a read of a window that has not changed since the last read
	opDelete
)

// streamOp is one request of a session script. fresh is how many fresh
// batches the session has received when the op runs, which fixes the
// window the oracle expects.
type streamOp struct {
	kind  streamOpKind
	batch eventlog.Log
	body  []byte // batch as NDJSON
	fresh int
}

// streamScript is one session's seeded request sequence.
type streamScript struct {
	id      int
	home    *home
	create  []byte // POST /v1/streams body
	batches []eventlog.Log
	ops     []streamOp
}

// makeScript builds a session over h: create, then for each fresh batch an
// ingest and a verdict read, with a repeat read after every third batch
// and a replay of an aged-out batch plus a read after every fourth
// eligible batch, then delete. Replays leave the window unchanged, so the
// reads after them, like repeats, find it unchanged.
func makeScript(id int, h *home, seed int64) *streamScript {
	log := homeLog(h, sessionSeconds, seed, id%2 == 1)
	s := &streamScript{id: id, home: h, create: h.body}
	s.batches = make([]eventlog.Log, sessionSeconds/batchSeconds)
	for _, e := range log {
		k := int(e.Time / batchSeconds)
		if k >= len(s.batches) {
			k = len(s.batches) - 1
		}
		s.batches[k] = append(s.batches[k], e)
	}
	s.ops = append(s.ops, streamOp{kind: opCreate})
	var maxTime int64
	fresh, replays := 0, 0
	for k, b := range s.batches {
		if len(b) == 0 {
			continue
		}
		fresh++
		maxTime = b[len(b)-1].Time
		s.ops = append(s.ops,
			streamOp{kind: opIngest, batch: b, body: ndjson(b), fresh: fresh},
			streamOp{kind: opVerdict, fresh: fresh})
		if k%3 == 2 {
			s.ops = append(s.ops, streamOp{kind: opRepeat, fresh: fresh})
		}
		if old := staleBatch(s.batches[:k], maxTime-windowAge); old != nil {
			if replays++; replays%4 == 0 {
				s.ops = append(s.ops,
					streamOp{kind: opReplay, batch: old, body: ndjson(old), fresh: fresh},
					streamOp{kind: opRepeat, fresh: fresh})
			}
		}
	}
	s.ops = append(s.ops, streamOp{kind: opDelete, fresh: fresh})
	return s
}

// staleBatch returns the newest non-empty batch whose events are all older
// than cutoff, so ingesting it again cannot change the window.
func staleBatch(batches []eventlog.Log, cutoff int64) eventlog.Log {
	for k := len(batches) - 1; k >= 0; k-- {
		b := batches[k]
		if len(b) > 0 && b[len(b)-1].Time < cutoff {
			return b
		}
	}
	return nil
}

// window is the event window fexserve's defaults keep after the first
// fresh batches: the events inside the age bound of the newest, capped to
// the most recent windowEvents.
func (s *streamScript) window(fresh int) eventlog.Log {
	var all eventlog.Log
	n := 0
	for _, b := range s.batches {
		if n == fresh {
			break
		}
		if len(b) > 0 {
			all = append(all, b...)
			n++
		}
	}
	if len(all) == 0 {
		return nil
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Time < all[j].Time })
	cutoff := all[len(all)-1].Time - windowAge
	lo := 0
	for lo < len(all) && all[lo].Time < cutoff {
		lo++
	}
	all = all[lo:]
	if over := len(all) - windowEvents; over > 0 {
		all = all[over:]
	}
	return all
}

func ndjson(log eventlog.Log) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, e := range log {
		if err := enc.Encode(e); err != nil {
			panic(err) // events are plain structs; encoding cannot fail
		}
	}
	return buf.Bytes()
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // generated rules and events are plain structs
	}
	return b
}
