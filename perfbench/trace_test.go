package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "request", Start: 0, End: 10 * ms},
		{ID: 2, Parent: 1, Name: "decode", Start: 1 * ms, End: 3 * ms},
		{ID: 3, Parent: 1, Name: "engine", Start: 4 * ms, End: 8 * ms},
		// Overlaps the engine span: the covered union is 4–9 ms.
		{ID: 4, Parent: 1, Name: "encode", Start: 7 * ms, End: 9 * ms},
		{ID: 5, Parent: 3, Name: "embed", Start: 5 * ms, End: 6 * ms},
		// A child running past its parent counts only inside it.
		{ID: 6, Parent: 2, Name: "late", Start: 2 * ms, End: 12 * ms},
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{
		"request": 10*ms - (2*ms + 5*ms),
		"decode":  2*ms - 1*ms,
		"engine":  4*ms - 1*ms,
		"encode":  2 * ms,
		"embed":   1 * ms,
		"late":    10 * ms,
	}
	for name, w := range want {
		if got := self[name]; len(got) != 1 || got[0] != w {
			t.Errorf("%s self time %v; want %v", name, got, w)
		}
	}
}

// With tracing off every tracer method is a no-op, so the traced and
// untraced passes run the same calls.
func TestNilTracerIsOff(t *testing.T) {
	var tr *tracer
	ran := false
	tr.do("x", 0, 1, func(id int) {
		ran = true
		if id != 0 {
			t.Errorf("span id %d with tracing off", id)
		}
	})
	tr.end(tr.begin("y", 0, 1))
	if !ran || tr.snapshot() != nil {
		t.Fatal("nil tracer must run the call and record nothing")
	}
}

func TestTracerRecordsParents(t *testing.T) {
	tr := newTracer()
	tr.do("root", 0, 7, func(id int) {
		tr.do("child", id, 7, func(int) {})
	})
	s := tr.snapshot()
	if len(s) != 2 || s[1].Parent != s[0].ID || s[0].Req != 7 || s[1].End < s[1].Start {
		t.Fatalf("spans %+v", s)
	}
	if got := selfTimes(s)["root"][0]; got > s[0].dur() || got < 0 {
		t.Fatalf("root self time %v of %v", got, s[0].dur())
	}
}
