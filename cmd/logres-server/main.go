// Command logres-server serves LOGRES databases over HTTP/JSON.
//
// Usage:
//
//	logres-server -addr :8440 [flags]
//
// The data plane lives under /v1/db (create/drop/list databases, apply
// modules through the optimistic concurrent path, stream query answers
// as NDJSON); the observability plane (/metrics, /debug/vars,
// /debug/pprof) is mounted on the same listener. Flags:
//
//	-addr a            listen address (default 127.0.0.1:8440)
//	-db name           preload a database under this name (default
//	                   "default" when -schema or -load is given)
//	-schema file       open the preloaded database over this schema file
//	-load file         load the preloaded database from a snapshot
//	                   instead (in-memory servers only)
//	-max-retries n     conflict retry bound for the preloaded database
//	-grace d           shutdown grace period (default 30s): SIGINT/SIGTERM
//	                   stops accepting work and drains in-flight
//	                   applications; after d they are canceled through
//	                   their contexts (the engine aborts with state
//	                   untouched) and the server exits
//	-chunk n           rows per streamed query chunk (default 256)
//	-data-dir d        durable mode: every database lives in its own
//	                   subdirectory of d (snapshot + write-ahead log);
//	                   databases found under d are recovered at startup
//	-fsync p           WAL sync policy: always | interval | off
//	                   (default always)
//	-fsync-interval d  coalescing window under -fsync interval
//	                   (default 100ms)
//	-compact-every n   checkpoint + truncate the WAL every n records
//	                   (default 4096, negative disables)
//	-slow-query-threshold d  log any data-plane request slower than d as
//	                   one JSONL line with its request id and full
//	                   profile (0 disables)
//	-slow-query-log f  destination for the slow-query JSONL records
//	                   (default stderr; "-" = stderr explicitly)
//
// Probes: GET /healthz answers 200 while the process serves (including
// during a drain); GET /readyz answers 200 only when the server accepts
// data-plane traffic — 503 while draining and until -data-dir recovery
// finished. GET /debug/requests lists the in-flight requests with their
// request id, route, database, phase, elapsed time, and budget use.
//
// Shutdown: on the first signal the server stops accepting data-plane
// requests (503 kind=draining with a Retry-After hint), waits up to
// -grace for in-flight applications, then force-cancels the
// stragglers; once drained every durable database's WAL is flushed. A
// second signal exits immediately.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"logres"
	"logres/internal/server"
)

type config struct {
	addr          string
	dbName        string
	schemaPath    string
	loadPath      string
	maxRetries    int
	grace         time.Duration
	chunk         int
	dataDir       string
	fsync         logres.FsyncPolicy
	fsyncInterval time.Duration
	compactEvery  int
	slowThreshold time.Duration
	slowLogPath   string
}

func parseFlags(args []string) (*config, error) {
	fs := flag.NewFlagSet("logres-server", flag.ContinueOnError)
	cfg := &config{}
	var fsyncName string
	fs.StringVar(&cfg.addr, "addr", "127.0.0.1:8440", "listen address")
	fs.StringVar(&cfg.dbName, "db", "default", "name for the preloaded database")
	fs.StringVar(&cfg.schemaPath, "schema", "", "schema file for the preloaded database")
	fs.StringVar(&cfg.loadPath, "load", "", "snapshot file for the preloaded database")
	fs.IntVar(&cfg.maxRetries, "max-retries", 0, "conflict retry bound for the preloaded database")
	fs.DurationVar(&cfg.grace, "grace", 30*time.Second, "shutdown grace period")
	fs.IntVar(&cfg.chunk, "chunk", 0, "rows per streamed query chunk")
	fs.StringVar(&cfg.dataDir, "data-dir", "", "data directory for durable databases (empty = in-memory)")
	fs.StringVar(&fsyncName, "fsync", "always", "WAL sync policy: always | interval | off")
	fs.DurationVar(&cfg.fsyncInterval, "fsync-interval", 0, "coalescing window under -fsync interval (default 100ms)")
	fs.IntVar(&cfg.compactEvery, "compact-every", 0, "WAL records between compactions (default 4096, negative disables)")
	fs.DurationVar(&cfg.slowThreshold, "slow-query-threshold", 0, "log data-plane requests slower than this with their profile (0 disables)")
	fs.StringVar(&cfg.slowLogPath, "slow-query-log", "", "slow-query JSONL destination (default stderr)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if cfg.schemaPath != "" && cfg.loadPath != "" {
		return nil, errors.New("-schema and -load are mutually exclusive")
	}
	if cfg.loadPath != "" && cfg.dataDir != "" {
		return nil, errors.New("-load and -data-dir are mutually exclusive (recover from the data directory instead)")
	}
	var err error
	if cfg.fsync, err = logres.ParseFsyncPolicy(fsyncName); err != nil {
		return nil, err
	}
	return cfg, nil
}

// preload opens the database named by -schema/-load, sharing the
// server's metrics registry so its evaluation counters land on
// /metrics beside the HTTP ones. On a durable server the preload goes
// through srv.Create (so it persists like API-created databases) and
// is skipped when the name was already recovered from the data
// directory — the persisted state wins over the schema file.
func preload(cfg *config, srv *server.Server, stderr *os.File) error {
	if cfg.schemaPath == "" && cfg.loadPath == "" {
		return nil
	}
	opts := []logres.Option{logres.WithMetrics(srv.Metrics())}
	if cfg.maxRetries != 0 {
		opts = append(opts, logres.WithMaxRetries(cfg.maxRetries))
	}
	if cfg.loadPath != "" {
		f, err := os.Open(cfg.loadPath)
		if err != nil {
			return err
		}
		defer f.Close()
		db, err := logres.Load(f, opts...)
		if err != nil {
			return err
		}
		return srv.Add(cfg.dbName, db)
	}
	src, err := os.ReadFile(cfg.schemaPath)
	if err != nil {
		return err
	}
	if _, err := srv.Create(cfg.dbName, string(src), opts...); err != nil {
		if errors.Is(err, server.ErrExists) {
			fmt.Fprintf(stderr, "logres-server: database %q recovered from %s; -schema ignored\n",
				cfg.dbName, cfg.dataDir)
			return nil
		}
		return err
	}
	return nil
}

// readHeaderTimeout bounds how long a connection may take to send its
// request headers; without it a client that never finishes them holds
// the connection open forever.
const readHeaderTimeout = 10 * time.Second

// newHTTPServer builds the HTTP server of the listener.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout}
}

// run serves until ctx is canceled (the first signal), then drains:
// Server.Shutdown bounds the in-flight applications by cfg.grace, and
// the http.Server shutdown closes the listener and idle connections.
func run(ctx context.Context, cfg *config, ln net.Listener, stderr *os.File) error {
	opts := server.Options{
		QueryChunkSize: cfg.chunk,
		DataDir:        cfg.dataDir,
		Fsync:          cfg.fsync,
		FsyncInterval:  cfg.fsyncInterval,
		CompactEvery:   cfg.compactEvery,
	}
	if cfg.slowThreshold > 0 {
		opts.SlowQueryThreshold = cfg.slowThreshold
		opts.SlowQueryLog = stderr
		if cfg.slowLogPath != "" && cfg.slowLogPath != "-" {
			f, err := os.OpenFile(cfg.slowLogPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return err
			}
			defer f.Close()
			opts.SlowQueryLog = f
		}
	}
	srv := server.New(opts)
	recovered, err := srv.OpenDataDir()
	if err != nil {
		return err
	}
	if len(recovered) > 0 {
		fmt.Fprintf(stderr, "logres-server: recovered %d database(s) from %s: %v\n",
			len(recovered), cfg.dataDir, recovered)
	}
	if err := preload(cfg, srv, stderr); err != nil {
		return err
	}
	hs := newHTTPServer(srv.Handler())
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	fmt.Fprintf(stderr, "logres-server: listening on %s\n", ln.Addr())

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintf(stderr, "logres-server: draining (grace %s)\n", cfg.grace)
	grace, cancel := context.WithTimeout(context.Background(), cfg.grace)
	defer cancel()
	drainErr := srv.Shutdown(grace)
	if err := hs.Shutdown(grace); err != nil && drainErr == nil {
		drainErr = err
	}
	if drainErr != nil {
		fmt.Fprintf(stderr, "logres-server: forced shutdown: %v\n", drainErr)
		return drainErr
	}
	fmt.Fprintln(stderr, "logres-server: drained cleanly")
	return nil
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "logres-server:", err)
		os.Exit(2)
	}
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "logres-server:", err)
		os.Exit(1)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, cfg, ln, os.Stderr); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "logres-server:", err)
		os.Exit(1)
	}
}
