package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestBenchmarkJSON requires BENCHMARK.json to name exactly the workloads
// and metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	same := func(kind string, got []metric, want []metricInfo) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, layerNames)
}

func TestCovered(t *testing.T) {
	parent := span{Start: 0, End: 100}
	kids := []span{{Start: 10, End: 30}, {Start: 20, End: 40}, {Start: 90, End: 120}, {Start: 50, End: 50}}
	if got, want := covered(parent, kids), 40e-9; got != want {
		t.Fatalf("covered = %g s, want %g s", got, want)
	}
}

func TestCheckText(t *testing.T) {
	for text, ok := range map[string]bool{
		"SDC 12.5x  energy 3.1%":     true,
		"Info: Inflight checks  1.0": true,
		"improvement +Inf":           false,
		"x\t-Inf\n":                  false,
		"NaN":                        false,
		"coverage NaN%":              false,
		"":                           false,
	} {
		if err := checkText("x", text); (err == nil) != ok {
			t.Errorf("checkText(%q) = %v, want ok=%v", text, err, ok)
		}
	}
}

// TestRunLeavesTreeClean runs every workload once from the repository root
// and requires the git status to be unchanged: the benchmark writes only
// under the ignored .bench_build directory and its own temporary cache
// directories, never the committed campaign cache.
func TestRunLeavesTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	status := func() []byte {
		cmd := exec.Command("git", "status", "--porcelain")
		cmd.Dir = root
		out, err := cmd.Output()
		if err != nil {
			t.Skipf("not a git checkout: %v", err)
		}
		return out
	}
	before := status()
	exe := filepath.Join(t.TempDir(), "clearbench")
	if out, err := exec.Command("go", "build", "-o", exe, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	cmd := exec.Command(exe, "-workload", "all", "-seed", "1", "-seconds", "1", "-trace", "1")
	cmd.Dir = root
	cmd.Env = append(os.Environ(), "CLEAR_CACHE_DIR=") // no cache directory from the environment
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("benchmark: %v\n%s", err, out)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		t.Fatalf("last line: %v\n%s", err, out)
	}
	if !res.Correct || res.Failed != 0 {
		t.Errorf("benchmark reports correct=%v with %d of %d operations failed\n%s", res.Correct, res.Failed, res.Attempted, out)
	}
	if after := status(); !bytes.Equal(before, after) {
		t.Errorf("git status changed:\nbefore:\n%s\nafter:\n%s", before, after)
	}
}
