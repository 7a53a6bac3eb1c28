package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// The benchmark's self-check: every workload, briefly, in both trace
// modes, through run.sh from the repository root. Each run must pass
// its output check and emit exactly the metrics BENCHMARK.json names,
// with their units. Run it with `go test` in this directory.

type benchFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchFile(t *testing.T) benchFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	b := readBenchFile(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		for _, trace := range []string{"0", "1"} {
			w, trace := w.Name, trace
			t.Run(w+"/trace"+trace, func(t *testing.T) {
				want := map[string]string{}
				specs := b.EndToEnd
				if trace == "1" {
					specs = b.PerLayer
				}
				for _, m := range specs {
					want[m.Name] = m.Unit
				}
				cmd := exec.Command("bash", "perfbench/run.sh", "--workload", w, "--seed", "7", "--seconds", "1", "--trace", trace)
				cmd.Dir = ".."
				cmd.Stderr = os.Stderr
				out, err := cmd.Output()
				if err != nil {
					t.Fatalf("run: %v", err)
				}
				lines := strings.Split(strings.TrimSpace(string(out)), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
				}
				if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				for name, unit := range want {
					m, ok := res.Metrics[name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", name)
					case m.Unit != unit:
						t.Errorf("metric %s unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("metric %s = %v", name, m.Value)
					case trace == "0" && m.Value == 0:
						t.Errorf("end-to-end metric %s is 0", name)
					}
				}
				for name := range res.Metrics {
					if _, ok := want[name]; !ok {
						t.Errorf("metric %s is not in BENCHMARK.json", name)
					}
				}
			})
		}
	}
}

// TestFailsWithoutSources runs the benchmark in a directory holding only
// BENCHMARK.json and the benchmark's own files: it must fail without
// printing a result.
func TestFailsWithoutSources(t *testing.T) {
	dir := t.TempDir()
	if err := os.CopyFS(filepath.Join(dir, "perfbench"), os.DirFS(".")); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "BENCHMARK.json"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("bash", "perfbench/run.sh", "--workload", "tpcc-tcp", "--seed", "1", "--seconds", "1", "--trace", "0")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err == nil {
		t.Fatal("benchmark succeeded without the repository's sources")
	}
	if strings.Contains(string(out), `"correct"`) {
		t.Fatalf("printed a result: %s", out)
	}
}
