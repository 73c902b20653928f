package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"logres/client"
	"logres/internal/bench"
	"logres/internal/obs"
	"logres/internal/server"
)

// E16 — HTTP data-plane load. An in-process logres-server on a loopback
// listener takes W applier clients (disjoint data-variant modules
// through POST /exec, i.e. the optimistic concurrent path over the
// wire) and R reader clients (POST /query over a fixed goal) for a
// fixed number of applications per applier. Throughput is applies per
// second; latencies come from the server's own
// logres_http_request_duration_ns route histograms, so the numbers on
// /metrics and the numbers in this table are the same measurement.

// e16Server starts the in-process daemon and returns its base URL, the
// shared metrics registry, and a shutdown func.
func e16Server() (string, *obs.Metrics, func() error, error) {
	m := obs.NewMetrics()
	srv := server.New(server.Options{Metrics: m})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go func() { _ = hs.Serve(ln) }()
	shutdown := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			return err
		}
		return hs.Shutdown(ctx)
	}
	return "http://" + ln.Addr().String(), m, shutdown, nil
}

// e16Result carries one configuration's measurements.
type e16Result struct {
	elapsed                   time.Duration
	applies                   int
	conflicts                 int64
	execP50, execP95, execP99 time.Duration
	queryP50, queryP95        time.Duration
}

// e16Load drives appliers×perApplier module applications and one
// query per applier batch from readers concurrent readers.
func e16Load(base string, m *obs.Metrics, appliers, readers, perApplier int) (*e16Result, error) {
	c := client.New(base)
	ctx := context.Background()
	if err := c.Create(ctx, "bench", e15Schema(), nil); err != nil {
		return nil, err
	}
	defer func() { _ = c.Drop(ctx, "bench") }()

	stop := make(chan struct{})
	readerErrs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		go func() {
			for {
				select {
				case <-stop:
					readerErrs <- nil
					return
				default:
				}
				if _, err := c.Query(ctx, "bench", "?- q1(x: X)."); err != nil {
					readerErrs <- err
					return
				}
			}
		}()
	}

	applyErrs := make(chan error, appliers)
	start := time.Now()
	for g := 0; g < appliers; g++ {
		go func(g int) {
			pred := fmt.Sprintf("q%d", 1+g%(e15Preds-1))
			for i := 0; i < perApplier; i++ {
				if _, err := c.Exec(ctx, "bench", e15Module(pred, g*perApplier+i)); err != nil {
					applyErrs <- err
					return
				}
			}
			applyErrs <- nil
		}(g)
	}
	for g := 0; g < appliers; g++ {
		if err := <-applyErrs; err != nil {
			close(stop)
			return nil, err
		}
	}
	elapsed := time.Since(start)
	close(stop)
	for r := 0; r < readers; r++ {
		if err := <-readerErrs; err != nil {
			return nil, err
		}
	}

	execHist := m.Histogram(`logres_http_request_duration_ns{route="exec"}`)
	queryHist := m.Histogram(`logres_http_request_duration_ns{route="query"}`)
	return &e16Result{
		elapsed:   elapsed,
		applies:   appliers * perApplier,
		conflicts: m.Counter("logres_module_conflicts_total").Value(),
		execP50:   time.Duration(execHist.Quantile(0.50)),
		execP95:   time.Duration(execHist.Quantile(0.95)),
		execP99:   time.Duration(execHist.Quantile(0.99)),
		queryP50:  time.Duration(queryHist.Quantile(0.50)),
		queryP95:  time.Duration(queryHist.Quantile(0.95)),
	}, nil
}

func runE16(quick bool) (*bench.Table, error) {
	t := &bench.Table{
		Title:   "E16 — HTTP data-plane load (appliers + readers, loopback)",
		Columns: []string{"appliers", "readers", "applies", "conflicts", "time", "applies/s", "exec-p50", "exec-p95", "exec-p99", "query-p50", "query-p95"},
	}
	perApplier := 48
	if quick {
		perApplier = 12
	}
	for _, cfg := range [][2]int{{1, 0}, {2, 2}, {4, 4}} {
		appliers, readers := cfg[0], cfg[1]
		// A fresh server per configuration keeps the histograms
		// configuration-local.
		base, m, shutdown, err := e16Server()
		if err != nil {
			return nil, err
		}
		res, err := e16Load(base, m, appliers, readers, perApplier)
		if err != nil {
			_ = shutdown()
			return nil, err
		}
		if err := shutdown(); err != nil {
			return nil, err
		}
		t.AddRow(appliers, readers, res.applies, res.conflicts, res.elapsed,
			modsPerSec(res.applies, res.elapsed),
			res.execP50, res.execP95, res.execP99, res.queryP50, res.queryP95)
	}
	return t, nil
}
