package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary serve as its own setup probe: run re-execs
// os.Executable, which under `go test` is this binary.
func TestMain(m *testing.M) {
	if os.Getenv(probeEnv) != "" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// runToy runs one workload at toy scale and returns the exit code and the
// parsed last line of output.
func runToy(t *testing.T, workload string, trace string, extra ...string) (int, result) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := append([]string{"--workload", workload, "--seed", "7", "--seconds", "0", "--trace", trace,
		"--toy", "--workdir", t.TempDir(), "--verdicts", "../results/verdicts.txt"}, extra...)
	code := run(args, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not a result: %v\nstdout:\n%s\nstderr:\n%s", workload, err, stdout.String(), stderr.String())
	}
	return code, res
}

func wantMetrics(t *testing.T, what string, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics emitted, BENCHMARK.json names %d", what, len(got), len(want))
	}
	for _, m := range want {
		g, ok := got[m.Name]
		if !ok {
			t.Errorf("%s: metric %s not emitted", what, m.Name)
			continue
		}
		if g.Unit != m.Unit {
			t.Errorf("%s: metric %s unit %q, BENCHMARK.json says %q", what, m.Name, g.Unit, m.Unit)
		}
	}
}

// TestEveryMetricEmitted runs every workload untraced and traced at toy
// scale and checks that each emits exactly the metrics BENCHMARK.json
// names, with their units, and passes its output checks.
func TestEveryMetricEmitted(t *testing.T) {
	b := readBenchmarkJSON(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if got := strings.Join(workloadNames(), ","); got != strings.Join(names, ",") {
		t.Fatalf("workloads %s, BENCHMARK.json names %s", got, strings.Join(names, ","))
	}
	for _, w := range names {
		for trace, want := range map[string][]struct{ Name, Unit string }{"0": b.EndToEnd, "1": b.PerLayer} {
			code, res := runToy(t, w, trace)
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s --trace %s: exit %d, correct %v, %d of %d operations failed", w, trace, code, res.Correct, res.Failed, res.Attempted)
			}
			wantMetrics(t, w+" --trace "+trace, res.Metrics, want)
		}
	}
}

// TestWrongVerdictFails proves the gate can fail: with a deliberately
// wrong expected verdict the run reports failed operations and exits
// nonzero.
func TestWrongVerdictFails(t *testing.T) {
	data, err := os.ReadFile("../results/verdicts.txt")
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "FLASH-fbs ") {
			line = strings.Replace(line, "commit ", "session", 1)
		}
		out = append(out, line)
	}
	wrong := filepath.Join(t.TempDir(), "verdicts.txt")
	if err := os.WriteFile(wrong, []byte(strings.Join(out, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	code, res := runToy(t, "flash-fbs-r256", "0", "--verdicts", wrong)
	if code == 0 || res.Correct || res.Failed == 0 {
		t.Fatalf("wrong expected verdict: exit %d, correct %v, %d of %d failed; want a failing run", code, res.Correct, res.Failed, res.Attempted)
	}
	if ratio := float64(res.Failed) / float64(res.Attempted); ratio <= 0 {
		t.Fatalf("fail ratio %v, want > 0", ratio)
	}
}
