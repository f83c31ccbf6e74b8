package main

import (
	"fmt"
	"math"
	"sort"
)

// tailLadder lists the percentiles a tail timing may be reported at, from
// the highest down. The benchmark reports the highest one that has at
// least minBeyond samples beyond it, so a tail figure always rests on more
// than a handful of observations.
var tailLadder = []float64{0.999, 0.99, 0.95, 0.9, 0.75, 0.5}

const minBeyond = 10

// rank is the 1-based nearest-rank position of percentile q among n
// sorted samples.
func rank(n int, q float64) int {
	k := int(math.Ceil(q*float64(n) - 1e-9))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// tailQuantile returns the highest ladder percentile with at least
// minBeyond of n samples strictly beyond its rank. ok is false when even
// the median lacks that support; the caller then reports the median alone.
func tailQuantile(n int) (q float64, ok bool) {
	for _, q := range tailLadder {
		if n-rank(n, q) >= minBeyond {
			return q, true
		}
	}
	return 0.5, false
}

// timing is one operation type's latency distribution.
type timing struct {
	samples []float64 // seconds; failures enter at failLatency
}

// failLatency is the latency a failed or refused operation is recorded
// at: the client-side request timeout. It always misses every latency
// limit, as a refused request does for a real caller.
const failLatency = 10.0

func (t *timing) add(seconds float64) { t.samples = append(t.samples, seconds) }

func (t *timing) fail() { t.samples = append(t.samples, failLatency) }

// record adds an operation's latency, or failLatency when it failed.
func (t *timing) record(seconds float64, err error) {
	if err != nil {
		t.fail()
		return
	}
	t.add(seconds)
}

// summary holds a timing's median and supported tail.
type summary struct {
	n       int
	p50     float64
	tailQ   float64
	tail    float64
	tailOK  bool
	present bool
}

func (t *timing) summarize() summary {
	n := len(t.samples)
	if n == 0 {
		return summary{}
	}
	s := append([]float64(nil), t.samples...)
	sort.Float64s(s)
	q, ok := tailQuantile(n)
	return summary{
		n:       n,
		p50:     s[rank(n, 0.5)-1],
		tailQ:   q,
		tail:    s[rank(n, q)-1],
		tailOK:  ok,
		present: true,
	}
}

// tailLabel renders a percentile as it appears in metric names: 0.99 →
// "p99", 0.999 → "p99.9".
func tailLabel(q float64) string {
	return "p" + trimFloat(q*100)
}

func trimFloat(v float64) string {
	s := fmt.Sprintf("%.1f", v)
	if len(s) > 2 && s[len(s)-2:] == ".0" {
		s = s[:len(s)-2]
	}
	return s
}

// median of a sample (0 for none).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[rank(len(s), 0.5)-1]
}

// ratio is a/b, and 0 when b is 0 (nothing measured).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// share is the fraction a/b of two counts, and 0 when b is 0.
func share(a, b int) float64 { return ratio(float64(a), float64(b)) }
