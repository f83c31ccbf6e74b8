// Command perfbench is the FexIoT serving and federation benchmark. It
// builds nothing itself (run.sh builds the binaries from the checkout): it
// launches the shipped fexserve or fexserver from their default flags,
// drives them over loopback from this one process with at most `clients`
// connections, checks every answer against an in-process oracle, and
// prints each metric by name with its unit. The last line of its output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench -workload detect-offline -seed 1 -seconds 25 -trace 0
//
// With -trace 0 it reports the end-to-end metrics of BENCHMARK.json; with
// -trace 1 it also calls each layer's public functions in-process, in the
// order the server does, with a span around each call, and reports the
// per-layer metrics. README.md says why each workload exists and which
// end-to-end metric each layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	binDir   string
	outDir   string
	log      io.Writer // human-readable metric lines
}

func (c *config) bin(name string) string { return filepath.Join(c.binDir, name) }

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what a workload run produces.
type report struct {
	attempted int
	failed    int // non-2xx, transport errors and oracle mismatches
	incorrect int // oracle mismatches alone
	notes     []string

	e2e    map[string]metric // the end-to-end slots of BENCHMARK.json
	layers map[string]metric // the per-layer metrics (traced runs)
}

func newReport() *report {
	return &report{e2e: map[string]metric{}, layers: map[string]metric{}}
}

// The end-to-end metrics every workload reports. Each workload fills the
// slots with its own headline operation (see README.md): the slot names
// are shared so every run reports every metric.
var e2eUnits = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"side_p50_ms", "ms"},
	{"capacity_per_s", "1/s"},
	{"rss_peak_mb", "MB"},
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(*config) (*report, error){
	"detect-offline":  runDetectOffline,
	"explain-mix":     runExplainMix,
	"stream-sessions": runStreamSessions,
	"federation":      runFederation,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	c := &config{log: stdout}
	fs.StringVar(&c.workload, "workload", "", "workload to run")
	fs.Int64Var(&c.seed, "seed", 1, "seed for the generated inputs")
	seconds := fs.Int("seconds", 25, "measured seconds")
	traced := fs.Int("trace", 0, "1 runs the traced per-layer breakdown")
	fs.StringVar(&c.binDir, "bin", ".bench_build/bin", "directory holding fexserve and fexserver")
	fs.StringVar(&c.outDir, "out", ".bench_build", "directory for span dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	c.seconds = float64(*seconds)
	c.trace = *traced == 1
	runner, ok := workloads[c.workload]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		var names []string
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(stderr, "perfbench: need -workload (one of %v), -seconds ≥ 1 and -trace 0|1\n", names)
		return 2
	}
	start := time.Now()
	rep, err := runner(c)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", c.workload, err)
		return 1
	}
	fmt.Fprintf(stdout, "# %s seed=%d trace=%v wall=%.1fs\n", c.workload, c.seed, c.trace,
		time.Since(start).Seconds())
	if err := emit(stdout, c, rep); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// emit prints the oracle notes and the final JSON line.
func emit(w io.Writer, c *config, rep *report) error {
	fmt.Fprintf(w, "%-32s %14.6f %-6s (%d of %d operations)\n", "failed_share",
		share(rep.failed, rep.attempted), "ratio", rep.failed, rep.attempted)
	for _, n := range rep.notes {
		fmt.Fprintf(w, "mismatch: %s\n", n)
	}
	metrics := map[string]metric{}
	if c.trace {
		metrics = rep.layers
	} else {
		for _, m := range e2eUnits {
			v, ok := rep.e2e[m.name]
			if !ok {
				return fmt.Errorf("workload did not report %s", m.name)
			}
			metrics[m.name] = v
		}
	}
	for k, v := range metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s is %v", k, v.Value)
		}
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.incorrect == 0, rep.attempted, rep.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(out))
	return err
}

// printMetric writes one named metric line.
func printMetric(w io.Writer, name string, value float64, unit, note string) {
	fmt.Fprintf(w, "%-32s %14.6f %-6s %s\n", name, value, unit, note)
}

// printTiming writes a timing's median and supported tail under the
// names <stem>_p50_<unit> and <stem>_<pNN>_<unit>, with the sample count.
func printTiming(w io.Writer, stem string, s summary, scale float64, unit string) {
	if !s.present {
		printMetric(w, stem+"_p50_"+unit, 0, unit, "(no samples)")
		return
	}
	note := fmt.Sprintf("(n=%d)", s.n)
	printMetric(w, stem+"_p50_"+unit, s.p50*scale, unit, note)
	if !s.tailOK {
		note = fmt.Sprintf("(n=%d: too few samples for a tail beyond the median)", s.n)
	}
	printMetric(w, stem+"_"+tailLabel(s.tailQ)+"_"+unit, s.tail*scale, unit, note)
}
