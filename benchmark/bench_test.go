package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// The tests run every workload at a hundredth of its size: seconds in
// total, with every oracle on.
func testConfig(t *testing.T) config {
	return config{seed: 1, seconds: 20, scale: 0.01, out: t.TempDir()}
}

func testSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestWorkloadsPassTheirOracles(t *testing.T) {
	spec := testSpec(t)
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			m, err := w.endToEnd(testConfig(t))
			if err != nil {
				t.Fatal(err)
			}
			if !m.correct || m.failed != 0 {
				t.Fatalf("failed %d of %d, problems %v", m.failed, m.attempted, m.problems)
			}
			for _, d := range spec.EndToEnd {
				if v, ok := m.values[d.Name]; !ok || v <= 0 {
					t.Errorf("%s = %v, want a value above 0", d.Name, v)
				}
			}
			if len(m.values) != len(spec.EndToEnd) {
				t.Errorf("measured %d end-to-end metrics, BENCHMARK.json declares %d", len(m.values), len(spec.EndToEnd))
			}
		})
	}
}

// Dropping one acknowledged commit from the model must fail the run.
func TestOracleCatchesALostCommit(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			cfg := testConfig(t)
			p, err := w.plan(cfg.seed, cfg.ops(w))
			if err != nil {
				t.Fatal(err)
			}
			if len(p.final) == 0 {
				t.Skip("the workload commits nothing")
			}
			last := &p.final[len(p.final)-1]
			lines := strings.Split(*last, "\n")
			*last = strings.Join(append(lines[:2:2], lines[3:]...), "\n") // minus the first fact
			m, err := w.measure(cfg, p)
			if err != nil {
				t.Fatal(err)
			}
			if m.correct || m.failed == 0 {
				t.Fatalf("the run passed against a model that lost a commit")
			}
		})
	}
}

// A reply that differs from the model's is a failed operation.
func TestWrongReplyFailsTheOperation(t *testing.T) {
	corrupt := map[string]func(*plan){
		"closure_batch": func(p *plan) { p.clients[0][1].want = append(p.clients[0][1].want, "zz") },
		"monitor_ivm":   func(p *plan) { p.clients[0][1].count++ }, // the first Count("tc")
	}
	for name, f := range corrupt {
		t.Run(name, func(t *testing.T) {
			w := findWorkload(name)
			cfg := testConfig(t)
			p, err := w.plan(cfg.seed, cfg.ops(w))
			if err != nil {
				t.Fatal(err)
			}
			f(p)
			m, err := w.measure(cfg, p)
			if err != nil {
				t.Fatal(err)
			}
			if m.correct || m.failed != 1 {
				t.Fatalf("correct=%v failed=%d, want one failed operation", m.correct, m.failed)
			}
		})
	}
}

func TestExactMetricsRepeatOnOneSeed(t *testing.T) {
	spec := testSpec(t)
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			var runs [2]*measured
			cfg := testConfig(t)
			for r := range runs {
				m, err := w.layers(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !m.correct {
					t.Fatalf("traced run incorrect: %v", m.problems)
				}
				runs[r] = m
			}
			for _, name := range exactMetrics {
				if a, b := runs[0].values[name], runs[1].values[name]; a != b {
					t.Errorf("%s: %v then %v on the same seed", name, a, b)
				}
			}
			if len(runs[0].values) != len(spec.PerLayer) {
				t.Errorf("measured %d per-layer metrics, BENCHMARK.json declares %d", len(runs[0].values), len(spec.PerLayer))
			}
			for _, d := range spec.PerLayer {
				if _, ok := runs[0].values[d.Name]; !ok {
					t.Errorf("%s is declared but was not measured", d.Name)
				}
			}
			if _, err := os.Stat(filepath.Join(cfg.out, w.name+".trace.json")); err != nil {
				t.Errorf("no trace file: %v", err)
			}
		})
	}
}

func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	spec := testSpec(t)
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d per-layer metrics, the program prints %d", len(spec.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		got := spec.PerLayer[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per_layer[%d] is %+v, the program has %+v", i, got, d)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, spec.Workloads[i].Name, w.name)
		}
	}
	for _, name := range exactMetrics {
		found := false
		for _, d := range perLayer {
			found = found || d.name == name
		}
		if !found {
			t.Errorf("exact metric %s is not a per-layer metric", name)
		}
	}
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, the limit is 64 KiB", len(raw))
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	want := []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
	if len(keys) != len(want) {
		t.Errorf("BENCHMARK.json has %d keys, want exactly %v", len(keys), want)
	}
	for _, k := range want {
		if _, ok := keys[k]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", k)
		}
	}
}

func TestGeneratorsDependOnTheSeedAlone(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		a, b, c := w.gen(7, 60), w.gen(7, 60), w.gen(8, 60)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: one seed gave two plans", w.name)
		}
		if reflect.DeepEqual(a.clients, c.clients) {
			t.Errorf("%s: two seeds gave one plan", w.name)
		}
	}
}

func TestQuartilesFollowPython(t *testing.T) {
	// statistics.quantiles(values, n=4) of these inputs.
	cases := []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, 1.25, 5.75},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{5, 1, 9}, 1, 9},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.in)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.in, q1, q3, c.q1, c.q3)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	spec := testSpec(t)
	dir := t.TempDir()
	write := func(name string, scale map[string]float64) string {
		rep := repeated{Seconds: 20, Seeds: []int64{1, 2, 3, 4}, Values: map[string]map[string][]float64{"closure_batch": {}}}
		for _, d := range spec.EndToEnd {
			k := 1.0
			if s, ok := scale[d.Name]; ok {
				k = s
			}
			rep.Values["closure_batch"][d.Name] = []float64{100 * k, 101 * k, 102 * k, 103 * k}
		}
		if s, ok := scale["noisy"]; ok {
			rep.Values["closure_batch"]["rss_mb"] = []float64{100, 100 * s, 100 * s * s, 100 * s * s * s}
		}
		raw, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("old.json", nil)
	var out bytes.Buffer
	ok, err := compareFiles(spec, base, write("same.json", nil), &out)
	if err != nil || !ok || strings.Contains(out.String(), "WORSE") {
		t.Fatalf("equal results: ok=%v err=%v\n%s", ok, err, out.String())
	}
	out.Reset()
	// Slower reads and, for a higher-is-better metric, lower throughput.
	ok, err = compareFiles(spec, base, write("slow.json", map[string]float64{"op_p50_ms": 1.5, "ops_per_s": 0.5, "setup_s": 0.5}), &out)
	if err != nil || ok {
		t.Fatalf("a 50%% regression passed: err=%v\n%s", err, out.String())
	}
	for _, line := range strings.Split(out.String(), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		switch f[0] {
		case "read_p50_ms", "ops_per_s":
			if !strings.HasSuffix(line, "WORSE") {
				t.Errorf("want WORSE: %s", line)
			}
		case "write_p50_ms", "alloc_kb_per_op":
			if !strings.HasSuffix(line, "ok") {
				t.Errorf("want ok: %s", line)
			}
		}
	}
	out.Reset()
	if _, err = compareFiles(spec, base, write("noisy.json", map[string]float64{"noisy": 1.6}), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "unresolved") {
		t.Errorf("a metric whose spread exceeds its bound was not reported unresolved:\n%s", out.String())
	}
}

// The traced run's baseline pass is untraced on every workload, the
// one behind the HTTP server (which always has a registry) included.
func TestBaselinePassTakesNoProfiles(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			cfg := testConfig(t)
			p, err := w.plan(cfg.seed, cfg.ops(w))
			if err != nil {
				t.Fatal(err)
			}
			m := newMeasured()
			plain, reg, err := w.drivePass(&cfg, p, m, false)
			if err != nil {
				t.Fatal(err)
			}
			if len(plain.profiles) != 0 || reg != nil {
				t.Errorf("the untraced pass took %d profiles (registry: %v)", len(plain.profiles), reg != nil)
			}
			traced, reg, err := w.drivePass(&cfg, p, m, true)
			if err != nil {
				t.Fatal(err)
			}
			if len(traced.profiles) == 0 || reg == nil {
				t.Errorf("the traced pass took %d profiles (registry: %v)", len(traced.profiles), reg != nil)
			}
			if !m.correct {
				t.Errorf("problems: %v", m.problems)
			}
		})
	}
}
