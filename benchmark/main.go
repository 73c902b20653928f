// Command benchmark is the repository's gated benchmark: four
// workloads over the LOGRES single node, end-to-end metrics from an
// untraced run and per-layer metrics from a traced one. BENCHMARK.json
// at the repository root declares every name printed here; README.md
// in this directory says what each one means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds int
	// scale multiplies every operation count: 1 for a run, 0.01 in the
	// tests.
	scale float64
	out   string // directory for traces and scratch data
	tmpN  int
}

// ops is the fixed number of operations w runs for this invocation.
func (c *config) ops(w *workload) int {
	n := int(w.rate * float64(c.seconds) * c.scale)
	if n < 12 {
		n = 12
	}
	return n
}

// budget scales the time a repeated measurement may take the way the
// operation counts are scaled, so that the tests stay short.
func (c *config) budget(d time.Duration) time.Duration {
	if c.scale < 1 {
		return time.Duration(float64(d) * c.scale)
	}
	return d
}

// scratch returns a fresh path under the output directory for a
// workload's data directory.
func (c *config) scratch(name string) (string, error) {
	if err := os.MkdirAll(filepath.Join(c.out, "tmp"), 0o755); err != nil {
		return "", err
	}
	c.tmpN++
	return filepath.Join(c.out, "tmp", fmt.Sprintf("%s-%d-%d", name, os.Getpid(), c.tmpN)), nil
}

func main() {
	cfg := config{scale: 1, out: filepath.Join("benchmark", "out")}
	name := flag.String("workload", "", "workload to run: closure_batch, registrar_http, durable_commit, monitor_ivm")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generators, the benchmark's only input")
	flag.IntVar(&cfg.seconds, "seconds", 0, "length of the timed phase on the seed commit (default: run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "1: run traced and print the per-layer metrics")
	repeat := flag.Int("repeat", 0, "run the workload (all four without -workload) this many times and print each metric's spread")
	compare := flag.Bool("compare", false, "compare two -repeat result files: benchmark -compare old.json new.json")
	vary := flag.Bool("vary", false, "with -repeat: run i uses seed+i, as the gate does, instead of one seed throughout")
	save := flag.String("save", "", "with -repeat: also write the results to this file, for -compare")
	flag.Parse()

	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fatal(err)
	}
	if cfg.seconds == 0 {
		cfg.seconds = spec.RunSeconds
	}
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: benchmark -compare old.json new.json"))
		}
		ok, err := compareFiles(spec, flag.Arg(0), flag.Arg(1), os.Stdout)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	case *repeat > 0:
		var names []string
		if *name != "" {
			names = []string{*name}
		}
		ok, err := repeatRuns(spec, cfg, names, *repeat, *vary, *trace == 1, *save, os.Stdout)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	default:
		w := findWorkload(*name)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		run := w.endToEnd
		if *trace == 1 {
			run = w.layers
		}
		m, err := run(cfg)
		if err != nil {
			fatal(err)
		}
		if err := report(spec, m, *trace == 1, os.Stdout); err != nil {
			fatal(err)
		}
		if !m.correct {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints every metric of the run's kind by name, value, unit
// and sample count, any oracle failure, and the result line.
func report(spec *benchSpec, m *measured, traced bool, w io.Writer) error {
	declared := spec.EndToEnd
	if traced {
		declared = spec.PerLayer
	}
	res := result{Correct: m.correct, Attempted: m.attempted, Failed: m.failed, Metrics: map[string]metricValue{}}
	for _, d := range declared {
		v, ok := m.values[d.Name]
		if !ok {
			return fmt.Errorf("metric %s is declared in BENCHMARK.json but was not measured", d.Name)
		}
		fmt.Fprintf(w, "%-36s %14.4f %-6s n=%d\n", d.Name, v, d.Unit, m.samples[d.Name])
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	var undeclared []string
	for name := range m.values {
		if _, ok := res.Metrics[name]; !ok {
			undeclared = append(undeclared, name)
		}
	}
	if len(undeclared) > 0 {
		sort.Strings(undeclared)
		return fmt.Errorf("measured but not declared in BENCHMARK.json: %v", undeclared)
	}
	fmt.Fprintf(w, "%-36s %14.6f %-6s n=%d\n", "fail_ratio", float64(m.failed)/float64(m.attempted), "ratio", m.attempted)
	for _, p := range m.problems {
		fmt.Fprintln(w, "FAILED:", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}
