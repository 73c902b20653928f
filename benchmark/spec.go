package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
)

// benchSpec is BENCHMARK.json, the benchmark's contract with its gate:
// the command, the workloads, and every metric with its unit, its
// direction and (end to end) the share of the parent's median by which
// it may worsen.
type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specMetric   `json:"end_to_end"`
	PerLayer   []specMetric   `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, s.validate()
}

// validate holds the spec to the limits its gate states.
func (s *benchSpec) validate() error {
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		return fmt.Errorf("run_seconds %d outside 1..60", s.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(n string) error {
		if !nameRE.MatchString(n) {
			return fmt.Errorf("bad name %q", n)
		}
		if seen[n] {
			return fmt.Errorf("name %q used twice", n)
		}
		seen[n] = true
		return nil
	}
	if len(s.Workloads) < 2 || len(s.Workloads) > 8 {
		return fmt.Errorf("%d workloads, want 2..8", len(s.Workloads))
	}
	for _, w := range s.Workloads {
		if err := name(w.Name); err != nil {
			return err
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			return fmt.Errorf("workload %s: why must be 1..200 characters", w.Name)
		}
	}
	metric := func(m specMetric, bounded bool) error {
		if err := name(m.Name); err != nil {
			return err
		}
		if !unitRE.MatchString(m.Unit) {
			return fmt.Errorf("metric %s: bad unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			return fmt.Errorf("metric %s: better is %q", m.Name, m.Better)
		}
		if bounded != (m.Bound != nil) {
			return fmt.Errorf("metric %s: end-to-end metrics have a bound, per-layer metrics have none", m.Name)
		}
		if bounded && (*m.Bound <= 0 || *m.Bound > 0.25) {
			return fmt.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, *m.Bound)
		}
		return nil
	}
	if len(s.EndToEnd) < 1 || len(s.EndToEnd) > 16 {
		return fmt.Errorf("%d end-to-end metrics, want 1..16", len(s.EndToEnd))
	}
	for _, m := range s.EndToEnd {
		if err := metric(m, true); err != nil {
			return err
		}
	}
	if len(s.PerLayer) < 1 || len(s.PerLayer) > 128 {
		return fmt.Errorf("%d per-layer metrics, want 1..128", len(s.PerLayer))
	}
	for _, m := range s.PerLayer {
		if err := metric(m, false); err != nil {
			return err
		}
	}
	if !seen["setup_s"] {
		return fmt.Errorf("no setup_s metric")
	}
	return nil
}

// perLayer lists the per-layer metrics, <module>.<metric>, in the
// order they are printed. BENCHMARK.json declares the same list; a test
// holds the two together.
var perLayer = []struct{ name, unit, better string }{
	// client + internal/server
	{"client.read_p50_ms", "ms", "lower"},
	{"client.write_p50_ms", "ms", "lower"},
	{"client.read_p95_ms", "ms", "lower"},
	{"client.write_p95_ms", "ms", "lower"},
	{"client.write_tail_ms", "ms", "lower"},
	{"client.notify_p50_ms", "ms", "lower"},
	{"client.roundtrip_overhead_us", "us", "lower"},
	{"server.exec_handler_us", "us", "lower"},
	{"server.query_handler_us", "us", "lower"},
	{"server.http_requests", "count", "lower"},
	{"server.http_5xx", "count", "lower"},
	{"server.conflicts_409", "count", "lower"},
	// internal/parser
	{"parser.module_us", "us", "lower"},
	{"parser.goal_us", "us", "lower"},
	{"parser.bytes_per_op", "B", "lower"},
	{"parser.mb_per_s", "MiB/s", "higher"},
	// internal/engine: compile
	{"engine.compile_us", "us", "lower"},
	{"engine.footprint_us", "us", "lower"},
	{"engine.rules_compiled", "count", "lower"},
	{"engine.strata", "count", "lower"},
	// internal/engine: fixpoint
	{"engine.fixpoint_op_ms", "ms", "lower"},
	{"engine.fixpoint_ms", "ms", "lower"},
	{"engine.fixpoint_serial_ms", "ms", "lower"},
	{"engine.fixpoint_vec_ms", "ms", "lower"},
	{"engine.query_us", "us", "lower"},
	{"engine.factset_clone_us", "us", "lower"},
	{"engine.factset_freeze_us", "us", "lower"},
	{"engine.rounds", "count", "lower"},
	{"engine.firings", "count", "lower"},
	{"engine.derived_facts", "count", "higher"},
	{"engine.delta_area", "count", "lower"},
	{"engine.parallel_dispatches", "count", "lower"},
	{"engine.derived_per_firing", "ratio", "higher"},
	// internal/colset + vector.go
	{"colset.join_ns_per_row", "ns", "lower"},
	{"colset.dedup_ns_per_row", "ns", "lower"},
	{"engine.vec_kernel_rows", "count", "lower"},
	{"engine.vec_strata", "count", "higher"},
	// internal/engine/ivm.go
	{"ivm.build_ms", "ms", "lower"},
	{"ivm.update_insert_us", "us", "lower"},
	{"ivm.update_delete_us", "us", "lower"},
	{"ivm.view_delta_facts_per_commit", "count", "lower"},
	{"ivm.eligible_strata", "count", "higher"},
	{"ivm.rebuilds", "count", "lower"},
	// internal/module
	{"module.apply_us", "us", "lower"},
	{"module.apply_snapshot_us", "us", "lower"},
	{"module.commit_delta_us", "us", "lower"},
	{"module.state_clone_us", "us", "lower"},
	{"module.instance_ms", "ms", "lower"},
	// internal/instance + internal/types
	{"instance.consistency_ms", "ms", "lower"},
	{"instance.check_tuple_ns", "ns", "lower"},
	// internal/storage
	{"storage.append_us", "us", "lower"},
	{"storage.sync_us", "us", "lower"},
	{"storage.wal_bytes_per_commit", "B", "lower"},
	{"storage.wal_bytes_per_record", "B", "lower"},
	{"storage.fsyncs_per_commit", "ratio", "lower"},
	{"storage.compact_ms", "ms", "lower"},
	{"storage.recover_s", "s", "lower"},
	{"storage.open_ms", "ms", "lower"},
	{"storage.replay_us_per_record", "us", "lower"},
	{"storage.save_state_ms", "ms", "lower"},
	{"storage.load_state_ms", "ms", "lower"},
	{"storage.snapshot_bytes_per_fact", "B", "lower"},
	{"storage.commitlog_validate_ns", "ns", "lower"},
	// logres root
	{"db.exec_us", "us", "lower"},
	{"db.exec_concurrent_us", "us", "lower"},
	{"db.retries_per_commit", "ratio", "lower"},
	{"db.conflicts", "count", "lower"},
	{"db.commit_path_fast", "count", "higher"},
	{"db.commit_path_merge", "count", "lower"},
	{"db.commit_path_replace", "count", "lower"},
	{"db.count_read_us", "us", "lower"},
	{"db.sub_fanout_us_per_subscriber", "us", "lower"},
	// whole run
	{"process.peak_rss_mb", "MiB", "lower"},
	{"trace.overhead_ratio", "ratio", "lower"},
	{"trace.layer_sum_ratio", "ratio", "higher"},
}
