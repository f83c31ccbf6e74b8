package main

import (
	"math"
	"testing"
)

// The reported tail is the highest ladder percentile with at least ten
// samples strictly beyond its nearest-rank position.
func TestTailQuantileRule(t *testing.T) {
	cases := []struct {
		n  int
		q  float64
		ok bool
	}{
		{10000, 0.999, true}, // rank 9990, 10 beyond
		{9999, 0.99, true},   // p99.9 would leave 9
		{1000, 0.99, true},   // rank 990, 10 beyond
		{999, 0.95, true},    // p99 would leave 9
		{200, 0.95, true},
		{199, 0.9, true},
		{100, 0.9, true},
		{40, 0.75, true},
		{39, 0.5, true},
		{20, 0.5, true},
		{19, 0.5, false},
		{1, 0.5, false},
	}
	for _, c := range cases {
		q, ok := tailQuantile(c.n)
		if q != c.q || ok != c.ok {
			t.Errorf("tailQuantile(%d) = %v,%v; want %v,%v", c.n, q, ok, c.q, c.ok)
		}
	}
	for n := 20; n <= 5000; n++ {
		q, _ := tailQuantile(n)
		if beyond := n - rank(n, q); beyond < minBeyond {
			t.Fatalf("n=%d: p%v leaves %d samples beyond it", n, q*100, beyond)
		}
		for _, higher := range tailLadder {
			if higher > q && n-rank(n, higher) >= minBeyond {
				t.Fatalf("n=%d: chose p%v although p%v has enough support", n, q*100, higher*100)
			}
		}
	}
}

func TestSummarizePicksNearestRank(t *testing.T) {
	tm := &timing{}
	for i := 1000; i >= 1; i-- { // 1..1000 ms, unsorted
		tm.add(float64(i) / 1000)
	}
	s := tm.summarize()
	if s.n != 1000 || s.tailQ != 0.99 || !s.tailOK {
		t.Fatalf("summary %+v", s)
	}
	if math.Abs(s.p50-0.5) > 1e-12 || math.Abs(s.tail-0.99) > 1e-12 {
		t.Fatalf("p50 %v tail %v; want 0.5 and 0.99", s.p50, s.tail)
	}
	if tailLabel(0.99) != "p99" || tailLabel(0.999) != "p99.9" || tailLabel(0.5) != "p50" {
		t.Fatal("tail labels")
	}
}

// Failed operations enter the distribution at the request timeout, so they
// always land in the tail.
func TestFailuresMissTheLimit(t *testing.T) {
	tm := &timing{}
	for i := 0; i < 989; i++ {
		tm.add(0.001)
	}
	for i := 0; i < 11; i++ {
		tm.fail()
	}
	if s := tm.summarize(); s.tail != failLatency {
		t.Fatalf("tail %v with 11 failures in 1000; want %v", s.tail, failLatency)
	}
}
