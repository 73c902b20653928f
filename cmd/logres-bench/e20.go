package main

import (
	"fmt"
	"strings"
	"time"

	"logres"
	"logres/internal/bench"
)

// E20 — incremental view maintenance. A write-heavy workload over a
// large derived instance: a chain-n edge base with the transitive
// closure installed as persistent rules, then a stream of single-edge
// commits each followed by a read of the derived instance (the
// monitoring pattern live subscriptions serve). A scratch database
// re-derives the O(n²) closure on every read; an incremental one pays
// delta propagation at commit and serves the read from the maintained
// set. The measured unit is one commit+read cycle.

const e20Schema = `
associations
  EDGE = (src: integer, dst: integer);
  TC = (src: integer, dst: integer);
`

const e20Rules = `
mode radv.
rules
  tc(src: X, dst: Y) <- edge(src: X, dst: Y).
  tc(src: X, dst: Z) <- tc(src: X, dst: Y), edge(src: Y, dst: Z).
end.
`

// e20Cycle runs the workload and times the commit+read stream: commits
// single edges extending the chain's tail (each derives a fresh batch
// of closure facts), reading the instance size after every commit.
func e20Cycle(n, commits int, incremental bool) (time.Duration, error) {
	var opts []logres.Option
	if incremental {
		opts = append(opts, logres.WithIncremental(true))
	}
	db, err := logres.Open(e20Schema, opts...)
	if err != nil {
		return 0, err
	}
	var b strings.Builder
	b.WriteString("mode ridv.\nrules\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "  edge(src: %d, dst: %d).\n", i, i+1)
	}
	b.WriteString("end.\n")
	if _, err := db.Exec(b.String()); err != nil {
		return 0, err
	}
	if _, err := db.Exec(e20Rules); err != nil {
		return 0, err
	}
	if _, err := db.Count("tc"); err != nil { // warm-up read
		return 0, err
	}
	start := time.Now()
	for c := 0; c < commits; c++ {
		src := fmt.Sprintf("mode ridv.\nrules\n  edge(src: %d, dst: %d).\nend.\n", n+c, n+c+1)
		if _, err := db.ExecConcurrent(src); err != nil {
			return 0, err
		}
		if _, err := db.Count("tc"); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

func runE20(quick bool) (*bench.Table, error) {
	t := &bench.Table{
		Title:   "E20 — incremental maintenance: commit+read latency vs from-scratch recomputation",
		Columns: []string{"n", "commits", "scratch", "incremental", "speedup"},
	}
	const commits = 16
	for _, n := range sizes(quick, []int{64, 128, 256}, []int{32, 64}) {
		dScratch, err := e20Cycle(n, commits, false)
		if err != nil {
			return nil, err
		}
		dInc, err := e20Cycle(n, commits, true)
		if err != nil {
			return nil, err
		}
		t.AddRow(n, commits, dScratch, dInc,
			fmt.Sprintf("%.2fx", float64(dScratch)/float64(dInc)))
	}
	return t, nil
}
