package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the smoke test checks
// the benchmark's output against.
type benchmarkSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

// printed is one "workload mode name value unit" line of the report.
type printed struct {
	value float64
	unit  string
}

// TestSmoke runs every workload at a tiny length, end to end and
// traced, and checks that every declared metric is printed with its
// unit, that no answer failed its check, and that each workload loads
// the layer it exists for.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload; skipped with -short")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}

	hsched := filepath.Join(t.TempDir(), "hsched")
	if out, err := exec.Command("go", "build", "-o", hsched, "hsched/cmd/hsched").CombinedOutput(); err != nil {
		t.Fatalf("building hsched: %v\n%s", err, out)
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", "all", "--seconds", "1", "--setups", "1", "-hsched", hsched}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("perfbench exited %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}

	got := map[string]printed{} // key: workload/mode/name
	sc := bufio.NewScanner(&stdout)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 5 {
			t.Fatalf("unexpected report line %q", sc.Text())
		}
		v, err := strconv.ParseFloat(f[3], 64)
		if err != nil {
			t.Fatalf("report line %q: %v", sc.Text(), err)
		}
		got[f[0]+"/"+f[1]+"/"+f[2]] = printed{v, f[4]}
	}

	metric := func(w, mode, name string) float64 {
		t.Helper()
		p, ok := got[w+"/"+mode+"/"+name]
		if !ok {
			t.Fatalf("%s %s: metric %s not printed", w, mode, name)
		}
		return p.value
	}
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			if p := got[w.Name+"/end-to-end/"+m.Name]; p.unit != m.Unit {
				t.Errorf("%s end-to-end %s: unit %q, BENCHMARK.json says %q", w.Name, m.Name, p.unit, m.Unit)
			}
		}
		for _, m := range spec.PerLayer {
			if p := got[w.Name+"/traced/"+m.Name]; p.unit != m.Unit {
				t.Errorf("%s traced %s: unit %q, BENCHMARK.json says %q", w.Name, m.Name, p.unit, m.Unit)
			}
		}
		for _, mode := range []string{"end-to-end", "traced"} {
			if e := metric(w.Name, mode, "error_rate"); e != 0 {
				t.Errorf("%s %s: error_rate %v, want 0", w.Name, mode, e)
			}
		}
	}

	// Each workload loads the layer it claims.
	if r := metric("repeat", "traced", "service.hit_ratio"); r < 0.999 {
		t.Errorf("repeat: service.hit_ratio %v, want ≈ 1", r)
	}
	if r := metric("churn", "traced", "service.delta_ratio"); r <= 0 {
		t.Errorf("churn: service.delta_ratio %v, want > 0", r)
	}
	if r := metric("churn", "traced", "service.evictions_per_op"); r <= 0 {
		t.Errorf("churn: service.evictions_per_op %v, want > 0", r)
	}
	if r := metric("search", "traced", "analysis.subtrees_pruned_per_miss"); r <= 0 {
		t.Errorf("search: analysis.subtrees_pruned_per_miss %v, want > 0", r)
	}
	if r := metric("serve", "traced", "httpd.parse_hit_ratio"); r <= 0 {
		t.Errorf("serve: httpd.parse_hit_ratio %v, want > 0", r)
	}
	if r := metric("serve", "traced", "httpd.binary_hit_ratio"); r <= 0 {
		t.Errorf("serve: httpd.binary_hit_ratio %v, want > 0", r)
	}
}
