package main

import (
	"bytes"
	"encoding/json"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmokeEveryWorkload builds fexserve and fexserver from this checkout
// and runs every workload briefly, traced and untraced, with the oracle
// on: every operation must succeed and every answer must check out.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the servers and runs every workload")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/fexserve", "./cmd/fexserver")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building the servers: %v\n%s", err, out)
	}
	for _, w := range []string{"detect-offline", "explain-mix", "stream-sessions", "federation"} {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := run([]string{"-workload", w, "-seed", "5", "-seconds", "1", "-trace", trace,
					"-bin", bin, "-out", t.TempDir()}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res struct {
					Correct           bool
					Attempted, Failed int
					Metrics           map[string]metric
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, stdout.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted,
						res.Failed, stdout.String())
				}
				want := len(e2eUnits)
				if trace == "1" {
					want = len(layerUnits)
				}
				if len(res.Metrics) != want {
					t.Fatalf("%d metrics, want %d", len(res.Metrics), want)
				}
			})
		}
	}
}

// A directory without the servers is refused before any result is
// printed.
func TestMissingBinariesFail(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-workload", "federation", "-seconds", "1", "-bin", t.TempDir(),
		"-out", t.TempDir()}, &stdout, &stderr)
	if code == 0 || strings.Contains(stdout.String(), `"correct"`) {
		t.Fatalf("exit %d with output %q", code, stdout.String())
	}
}
