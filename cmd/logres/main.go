// Command logres executes LOGRES schema and module files against a
// database state.
//
// Usage:
//
//	logres -schema schema.lgr [flags] module1.lgr module2.lgr …
//
// The schema file contains only type equations (domains / classes /
// associations / functions). Each module file is applied in order with
// its declared mode (RIDI when undeclared). Flags:
//
//	-schema file    schema file (required unless -load is given)
//	-load file      load a snapshot instead of opening a schema
//	-save file      save a snapshot after applying all modules
//	-q goal         evaluate a goal (e.g. '?- person(name: X).') at the end
//	-dump           print the final instance
//	-max-steps n    fixpoint round bound
//	-max-facts n    bound on facts derived per evaluation
//	-max-oids n     bound on oids invented per evaluation
//	-deadline d     wall-clock bound per evaluation (e.g. 30s)
//	-trace dest     write an evaluation event trace; dest is a JSONL file
//	                path, "-" for JSONL on stderr, or "text:PATH" /
//	                "text:-" for the human-readable rendering
//	-flight n       keep the last n trace events in a flight recorder and
//	                dump them to stderr when an evaluation aborts
//	-metrics-addr a serve /metrics (Prometheus text), /debug/vars
//	                (expvar), and /debug/pprof on addr (e.g. :6060)
//	-concurrent     apply modules optimistically (snapshot + footprint
//	                validation + retry) instead of under the write lock
//	-max-retries n  conflict retry bound for -concurrent (0 = default,
//	                negative = fail on the first conflict)
//	-i              start an interactive REPL after applying the modules
//
// Ctrl-C cancels the in-flight evaluation: non-interactive runs exit
// non-zero with the database file untouched; the REPL returns to its
// prompt with the in-memory database unchanged.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"logres"
)

// config collects the command-line configuration of one run.
type config struct {
	schemaPath  string
	loadPath    string
	savePath    string
	goal        string
	dump        bool
	interactive bool
	maxRetries  int
	budget      logres.Budget
	trace       string
	flight      int
	metricsAddr string
	moduleFiles []string
}

func main() {
	var cfg config
	flag.StringVar(&cfg.schemaPath, "schema", "", "schema file (type equations only)")
	flag.StringVar(&cfg.loadPath, "load", "", "load a snapshot instead of opening a schema")
	flag.StringVar(&cfg.savePath, "save", "", "save a snapshot after applying all modules")
	flag.StringVar(&cfg.goal, "q", "", "goal to evaluate at the end")
	flag.BoolVar(&cfg.dump, "dump", false, "print the final instance")
	flag.IntVar(&cfg.budget.MaxRounds, "max-steps", 0, "fixpoint round bound (0 = default)")
	flag.IntVar(&cfg.budget.MaxFacts, "max-facts", 0, "bound on facts derived per evaluation (0 = unlimited)")
	flag.IntVar(&cfg.budget.MaxOIDs, "max-oids", 0, "bound on oids invented per evaluation (0 = unlimited)")
	flag.DurationVar(&cfg.budget.Timeout, "deadline", 0, "wall-clock bound per evaluation (0 = unlimited)")
	flag.StringVar(&cfg.trace, "trace", "", `trace destination: JSONL file, "-" (stderr), or "text:PATH"`)
	flag.IntVar(&cfg.flight, "flight", 0, "flight-recorder size; dumps the last n events to stderr on abort (0 = off)")
	flag.StringVar(&cfg.metricsAddr, "metrics-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address")
	flag.IntVar(&cfg.maxRetries, "max-retries", 0, "conflict retry bound per module (0 = default, negative = no retries)")
	flag.BoolVar(&cfg.interactive, "i", false, "start an interactive REPL after applying the modules")
	flag.Parse()
	cfg.moduleFiles = flag.Args()

	// Ctrl-C (or SIGTERM) cancels the in-flight evaluation; module
	// application is all-or-nothing, so the database is never left
	// half-updated. The REPL installs its own per-evaluation handler so an
	// interrupt returns to the prompt instead of exiting.
	ctx := context.Background()
	if !cfg.interactive {
		var stop context.CancelFunc
		ctx, stop = signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
		defer stop()
	}
	if err := run(ctx, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "logres:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, cfg config) error {
	var opts []logres.Option
	if cfg.budget != (logres.Budget{}) {
		opts = append(opts, logres.WithBudget(cfg.budget))
	}
	if cfg.maxRetries != 0 {
		opts = append(opts, logres.WithMaxRetries(cfg.maxRetries))
	}

	tracer, closeTrace, err := buildTracer(cfg)
	if err != nil {
		return err
	}
	if closeTrace != nil {
		defer closeTrace()
	}
	if tracer != nil {
		opts = append(opts, logres.WithTracer(tracer))
	}

	var metrics *logres.Metrics
	if cfg.metricsAddr != "" {
		metrics = logres.NewMetrics()
		metrics.PublishExpvar("logres")
		opts = append(opts, logres.WithMetrics(metrics))
		go func() {
			if err := metricsServer(cfg.metricsAddr, metrics).ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "logres: metrics server:", err)
			}
		}()
	}

	var db *logres.Database
	switch {
	case cfg.loadPath != "":
		f, err := os.Open(cfg.loadPath)
		if err != nil {
			return err
		}
		defer f.Close()
		loaded, err := logres.Load(f, opts...)
		if err != nil {
			return err
		}
		db = loaded
	case cfg.schemaPath != "":
		src, err := os.ReadFile(cfg.schemaPath)
		if err != nil {
			return err
		}
		opened, err := logres.Open(string(src), opts...)
		if err != nil {
			return fmt.Errorf("%s: %w", cfg.schemaPath, err)
		}
		db = opened
	default:
		return fmt.Errorf("one of -schema or -load is required")
	}

	for _, path := range cfg.moduleFiles {
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		res, err := db.ExecContext(ctx, string(src))
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		fmt.Printf("applied %s (%s)\n", path, res.Mode)
		if res.Answer != nil {
			printAnswer(res.Answer)
		}
	}

	if cfg.goal != "" {
		ans, err := db.QueryContext(ctx, cfg.goal)
		if err != nil {
			return err
		}
		printAnswer(ans)
	}
	if cfg.dump {
		out, err := db.InstanceString()
		if err != nil {
			return err
		}
		fmt.Print(out)
	}
	if cfg.interactive {
		if err := repl(db, os.Stdin, os.Stdout); err != nil {
			return err
		}
	}
	if cfg.savePath != "" {
		f, err := os.Create(cfg.savePath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := db.Save(f); err != nil {
			return err
		}
		fmt.Printf("saved snapshot to %s\n", cfg.savePath)
	}
	return nil
}

// readHeaderTimeout bounds how long a metrics connection may take to
// send its request headers; without it a client that never finishes them
// holds the connection open forever.
const readHeaderTimeout = 10 * time.Second

// metricsServer builds the -metrics-addr HTTP server.
func metricsServer(addr string, m *logres.Metrics) *http.Server {
	return &http.Server{Addr: addr, Handler: logres.MetricsHandler(m), ReadHeaderTimeout: readHeaderTimeout}
}

// buildTracer assembles the tracer the -trace and -flight flags ask
// for: a JSONL or text sink on a file or stderr, fanned together with a
// flight recorder that dumps to stderr on abort. The returned cleanup
// closes any opened file.
func buildTracer(cfg config) (logres.Tracer, func(), error) {
	var tracers []logres.Tracer
	var cleanup func()
	if cfg.trace != "" {
		dest := cfg.trace
		text := false
		if strings.HasPrefix(dest, "text:") {
			text, dest = true, strings.TrimPrefix(dest, "text:")
		}
		var w *os.File
		if dest == "-" {
			w = os.Stderr
		} else {
			f, err := os.Create(dest)
			if err != nil {
				return nil, nil, fmt.Errorf("-trace: %w", err)
			}
			w, cleanup = f, func() { f.Close() }
		}
		if text {
			tracers = append(tracers, logres.NewTextTracer(w))
		} else {
			tracers = append(tracers, logres.NewJSONLTracer(w))
		}
	}
	if cfg.flight > 0 {
		fr := logres.NewFlightRecorder(cfg.flight)
		fr.SetDumpOnAbort(os.Stderr)
		tracers = append(tracers, fr)
	}
	return logres.MultiTracer(tracers...), cleanup, nil
}

func printAnswer(ans *logres.Answer) {
	if len(ans.Vars) == 0 {
		if len(ans.Rows) > 0 {
			fmt.Println("yes")
		} else {
			fmt.Println("no")
		}
		return
	}
	fmt.Println(strings.Join(ans.Vars, "\t"))
	for _, row := range ans.Rows {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = v.String()
		}
		fmt.Println(strings.Join(cells, "\t"))
	}
	fmt.Printf("(%d answers)\n", len(ans.Rows))
}
