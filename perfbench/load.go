package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// clients is the number of connections and client goroutines the load
// generator uses: nproc on the 2-core hosts this benchmark targets.
const clients = 2

// newClient returns an HTTP client that holds exactly one loopback
// connection and never consults proxy settings.
func newClient() *http.Client {
	return &http.Client{
		Timeout: time.Duration(failLatency * float64(time.Second)),
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		},
	}
}

// call is one request the generator sends.
type call struct {
	method, path, ctype string
	body                []byte
}

// result is one sent request's outcome. lat is measured from the request's
// due time in an open loop and from its send time in a closed loop; late
// is how long after its due time the request was sent.
type result struct {
	status int
	body   []byte
	err    error
	lat    time.Duration
	late   time.Duration
}

func (r result) ok() bool { return r.err == nil && r.status >= 200 && r.status < 300 }

func send(c *http.Client, base string, k call) (int, []byte, error) {
	req, err := http.NewRequest(k.method, base+k.path, bytes.NewReader(k.body))
	if err != nil {
		return 0, nil, err
	}
	if k.ctype != "" {
		req.Header.Set("Content-Type", k.ctype)
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// openLoop sends calls[i] at start + i/rate over `clients` connections,
// whatever the server's progress: a stalled server delays every later
// request, and that delay is part of their latency. out[i] receives the
// outcome of calls[i]; worker w handles the indices it claims in order and
// tags them with w in owner, so per-client ordering checks stay possible.
func openLoop(base string, calls []call, rate float64, start time.Time) (out []result, owner []int) {
	out = make([]result, len(calls))
	owner = make([]int, len(calls))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := newClient()
			defer c.CloseIdleConnections()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(calls) {
					return
				}
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				st, b, err := send(c, base, calls[i])
				out[i] = result{status: st, body: b, err: err,
					lat: time.Since(due), late: sent.Sub(due)}
				owner[i] = w
			}
		}(w)
	}
	wg.Wait()
	return out, owner
}

// closedLoop runs `clients` workers until the deadline; worker w sends
// seqs[w] round-robin from position next[w], each request as soon as the
// previous one answered, reports outcomes in order through record, and
// leaves next[w] where the worker stopped, so the next phase continues
// the cycle instead of repeating its start.
func closedLoop(base string, seqs [][]call, next []int, deadline time.Time,
	record func(w, i int, r result)) {
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := newClient()
			defer c.CloseIdleConnections()
			for ; time.Now().Before(deadline); next[w]++ {
				i := next[w] % len(seqs[w])
				t0 := time.Now()
				st, b, err := send(c, base, seqs[w][i])
				record(w, i, result{status: st, body: b, err: err, lat: time.Since(t0)})
			}
		}(w)
	}
	wg.Wait()
}

// promSample maps a series ("name" or "name{labels}") to its value.
type promSample map[string]float64

// scrape reads the server's Prometheus text exposition.
func scrape(httpAddr string) (promSample, error) {
	c := newClient()
	defer c.CloseIdleConnections()
	st, body, err := send(c, "http://"+httpAddr, call{method: http.MethodGet, path: "/metrics"})
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	if st != http.StatusOK {
		return nil, fmt.Errorf("scraping /metrics: status %d", st)
	}
	out := promSample{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("scraping /metrics: %q: %w", line, err)
		}
		out[line[:sp]] = v
	}
	return out, sc.Err()
}

// sum adds every series of family name (all label sets).
func (p promSample) sum(name string) float64 {
	var s float64
	for k, v := range p {
		if k == name || strings.HasPrefix(k, name+"{") {
			s += v
		}
	}
	return s
}

// delta is after − before for one family.
func delta(before, after promSample, name string) float64 {
	return after.sum(name) - before.sum(name)
}
