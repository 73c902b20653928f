package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
)

// repeated is what -repeat saves and -compare reads: for each workload
// and metric, the value of every run.
type repeated struct {
	Seconds int                             `json:"seconds"`
	Seeds   []int64                         `json:"seeds"`
	Traced  bool                            `json:"traced"`
	Values  map[string]map[string][]float64 `json:"values"` // workload → metric → one value per run
}

// spread is the gate's measure of run-to-run noise: the distance
// between the quartiles as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / m
}

// repeatRuns runs each named workload n times, every run in a process
// of its own (peak RSS and the heap's history are per process), and
// prints each metric's median, quartiles and spread against its bound.
// With vary the i-th run uses seed+i, as the gate does. It reports
// whether every run was correct and every end-to-end spread stayed
// within the metric's bound.
func repeatRuns(spec *benchSpec, cfg config, names []string, n int, vary, traced bool, save string, out io.Writer) (bool, error) {
	if len(names) == 0 {
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	rep := repeated{Seconds: cfg.seconds, Traced: traced, Values: map[string]map[string][]float64{}}
	for i := 0; i < n; i++ {
		seed := cfg.seed
		if vary {
			seed += int64(i)
		}
		rep.Seeds = append(rep.Seeds, seed)
	}
	declared := spec.EndToEnd
	if traced {
		declared = spec.PerLayer
	}
	ok := true
	for _, name := range names {
		if findWorkload(name) == nil {
			return false, fmt.Errorf("unknown workload %q", name)
		}
		rep.Values[name] = map[string][]float64{}
		for _, seed := range rep.Seeds {
			args := []string{"-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(cfg.seconds)}
			if traced {
				args = append(args, "-trace", "1")
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			raw, err := cmd.Output()
			lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
			var res result
			if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
				return false, fmt.Errorf("%s seed %d: no result line (%v): %s", name, seed, err, raw)
			}
			if !res.Correct || res.Failed > 0 {
				ok = false
				fmt.Fprintf(out, "%s seed %d: INCORRECT, %d of %d operations failed\n", name, seed, res.Failed, res.Attempted)
			}
			for metric, v := range res.Metrics {
				rep.Values[name][metric] = append(rep.Values[name][metric], v.Value)
			}
		}
		fmt.Fprintf(out, "%s: %d runs, seeds %v, %d s\n", name, n, rep.Seeds, cfg.seconds)
		fmt.Fprintf(out, "  %-34s %-6s %12s %12s %12s %8s %6s\n", "metric", "unit", "q1", "median", "q3", "spread", "bound")
		for _, d := range declared {
			xs := rep.Values[name][d.Name]
			q1, q3 := quartiles(xs)
			line := fmt.Sprintf("  %-34s %-6s %12.4f %12.4f %12.4f %7.1f%%", d.Name, d.Unit, q1, median(xs), q3, 100*spread(xs))
			if d.Bound != nil {
				line += fmt.Sprintf(" %5.0f%%", 100**d.Bound)
				if spread(xs) > *d.Bound {
					line += "  SPREAD WIDER THAN BOUND"
					ok = false
				}
			}
			fmt.Fprintln(out, line)
		}
	}
	if save != "" {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", " ")
		if err := enc.Encode(rep); err != nil {
			return false, err
		}
		if err := os.WriteFile(save, buf.Bytes(), 0o644); err != nil {
			return false, err
		}
	}
	return ok, nil
}

// compareFiles prints, for every workload and metric two -repeat
// results share, the old and new medians, their ratio with its base,
// the bound, and a verdict: ok, worse (the new median is worse than the
// old by more than the bound), or unresolved (either side's spread is
// wider than the bound, so the medians cannot be told apart). Exact
// counters must be equal. It reports whether nothing was worse.
func compareFiles(spec *benchSpec, oldPath, newPath string, out io.Writer) (bool, error) {
	var sides [2]repeated
	for i, path := range []string{oldPath, newPath} {
		raw, err := os.ReadFile(path)
		if err != nil {
			return false, err
		}
		if err := json.Unmarshal(raw, &sides[i]); err != nil {
			return false, fmt.Errorf("%s: %w", path, err)
		}
	}
	before, after := sides[0], sides[1]
	if before.Traced != after.Traced || before.Seconds != after.Seconds {
		return false, fmt.Errorf("the two results are not of one kind: traced %v/%v, %d/%d s",
			before.Traced, after.Traced, before.Seconds, after.Seconds)
	}
	declared := spec.EndToEnd
	if before.Traced {
		declared = spec.PerLayer
	}
	exact := map[string]bool{}
	for _, name := range exactMetrics {
		exact[name] = true
	}
	ok := true
	for _, w := range spec.Workloads {
		if before.Values[w.Name] == nil || after.Values[w.Name] == nil {
			continue
		}
		fmt.Fprintf(out, "%s\n  %-34s %-6s %12s %12s %18s %6s  %s\n", w.Name, "metric", "unit", "old", "new", "new/old", "bound", "verdict")
		for _, d := range declared {
			a, b := before.Values[w.Name][d.Name], after.Values[w.Name][d.Name]
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			ma, mb := median(a), median(b)
			ratio := "-"
			if ma != 0 {
				ratio = fmt.Sprintf("%.3f of %.4g", mb/ma, ma)
			}
			bound, verdict := "", ""
			switch {
			case exact[d.Name]:
				bound, verdict = "exact", "ok"
				if ma != mb {
					verdict, ok = "DIFFERS", false
				}
			case d.Bound != nil:
				bound = fmt.Sprintf("%.0f%%", 100**d.Bound)
				worse := (mb - ma) / ma
				if d.Better == "higher" {
					worse = (ma - mb) / ma
				}
				switch {
				case spread(a) > *d.Bound || spread(b) > *d.Bound:
					verdict = "unresolved"
				case worse > *d.Bound:
					verdict, ok = "WORSE", false
				default:
					verdict = "ok"
				}
			}
			fmt.Fprintf(out, "  %-34s %-6s %12.4f %12.4f %18s %6s  %s\n", d.Name, d.Unit, ma, mb, ratio, bound, verdict)
		}
	}
	return ok, nil
}
