package main

import (
	"bytes"
	"math/rand"
	"testing"
)

func TestInputsRepeatForASeed(t *testing.T) {
	a, b := makeHomes(3, populationHomes), makeHomes(3, populationHomes)
	for i := range a {
		if !bytes.Equal(a[i].body, b[i].body) {
			t.Fatalf("home %d differs between two generations of seed 3", i)
		}
	}
	if c := makeHomes(4, populationHomes); bytes.Equal(a[0].body, c[0].body) && bytes.Equal(a[1].body, c[1].body) {
		t.Fatal("seeds 3 and 4 generated the same homes")
	}
	ea, eb := makeEventRequest(a[5], 11), makeEventRequest(b[5], 11)
	if !bytes.Equal(ea.body, eb.body) {
		t.Fatal("event request differs for the same seed")
	}
	s1, s2 := makeScripts(3, a), makeScripts(3, b)
	for i := range s1 {
		if len(s1[i].ops) != len(s2[i].ops) {
			t.Fatalf("script %d differs", i)
		}
		for j := range s1[i].ops {
			if !bytes.Equal(s1[i].ops[j].body, s2[i].ops[j].body) || s1[i].ops[j].kind != s2[i].ops[j].kind {
				t.Fatalf("script %d op %d differs", i, j)
			}
		}
	}
	f1, f2 := makeFedData(3), makeFedData(3)
	for c := range f1 {
		for i := range f1[c].train {
			g1, g2 := f1[c].train[i], f2[c].train[i]
			if g1.N() != g2.N() || len(g1.Edges) != len(g2.Edges) || g1.Label != g2.Label {
				t.Fatalf("client %d graph %d differs", c, i)
			}
		}
	}
}

func TestPopulationShape(t *testing.T) {
	homes := makeHomes(1, populationHomes)
	over50, archs := 0, map[string]bool{}
	for _, h := range homes {
		n := len(h.rules)
		if n < minRules || n > maxRules {
			t.Fatalf("home with %d rules", n)
		}
		if n > 50 {
			over50++
		}
		archs[h.arch] = true
	}
	if over50 == 0 || len(archs) < 5 {
		t.Fatalf("%d homes over 50 rules, %d archetypes", over50, len(archs))
	}
	seq := detectSequence(rand.New(rand.NewSource(1)), homes, 3*populationHomes)
	count := map[int]int{}
	for _, sc := range seq {
		count[sc.home.idx]++
	}
	for i := range homes {
		if count[i] != 3 {
			t.Fatalf("home %d sent %d times in three cycles", i, count[i])
		}
	}
}

// Replays carry only events the window has already aged out, so the
// window the oracle expects is unchanged by them.
func TestScriptReplaysAreStale(t *testing.T) {
	for _, s := range makeScripts(2, makeHomes(2, populationHomes)) {
		replays := 0
		for _, op := range s.ops {
			if op.kind != opReplay {
				continue
			}
			replays++
			w := s.window(op.fresh)
			cutoff := w[len(w)-1].Time - windowAge
			for _, e := range op.batch {
				if e.Time >= cutoff {
					t.Fatalf("script %d: replayed event at %d inside the window (cutoff %d)", s.id, e.Time, cutoff)
				}
			}
		}
		if replays == 0 && len(s.batches) > 15 {
			t.Errorf("script %d has no replay", s.id)
		}
	}
}
