package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"logres"
	"logres/internal/colset"
	"logres/internal/engine"
	"logres/internal/guard"
	"logres/internal/obs"
	"logres/internal/parser"
	"logres/internal/storage"
	"logres/internal/value"
)

// exactMetrics are the per-layer metrics that count work rather than
// time it, on inputs the seed fixes: two traced runs on one seed must
// print the same value for each.
var exactMetrics = []string{
	"parser.bytes_per_op",
	"engine.rules_compiled", "engine.strata",
	"engine.rounds", "engine.firings", "engine.derived_facts", "engine.delta_area", "engine.derived_per_firing",
	"engine.vec_kernel_rows", "engine.vec_strata",
	"ivm.view_delta_facts_per_commit", "ivm.eligible_strata",
	"storage.wal_bytes_per_record", "storage.snapshot_bytes_per_fact",
}

// timed returns the wall time of each of reps calls of f, in ns.
func timed(reps int, f func() error) ([]float64, error) {
	var ns []float64
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := f(); err != nil {
			return nil, err
		}
		ns = append(ns, float64(time.Since(start)))
	}
	return ns, nil
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// layers is the traced run. At a quarter of the operations it drives
// the workload untraced (the baseline of the two trace.* ratios, and
// the caller's figures that are not gated end to end), drives it
// again with a metrics registry attached and a Profile taken on every
// call, replays the first operations through each layer by hand under
// spans, and times each layer's remaining entry points once on the
// state that replay ends in.
func (w *workload) layers(cfg config) (*measured, error) {
	quarter := cfg
	quarter.scale *= 0.25
	p, err := w.plan(cfg.seed, quarter.ops(w))
	if err != nil {
		return nil, err
	}
	m := newMeasured()
	for _, d := range perLayer {
		m.set(d.name, 0, 0) // a layer the workload does not enter reports 0
	}

	plain, _, err := w.drivePass(&cfg, p, m, false)
	if err != nil {
		return nil, err
	}
	hwm, err := procStatusMiB("VmHWM")
	if err != nil {
		return nil, err
	}
	m.set("process.peak_rss_mb", hwm, 1)
	traced, reg, err := w.drivePass(&cfg, p, m, true)
	if err != nil {
		return nil, err
	}
	m.attempted = plain.attempted + traced.attempted
	m.failed = plain.failed + traced.failed

	tr := &tracer{origin: time.Now()}
	pr, cleanup, err := newProber(w, p, &cfg, tr)
	defer cleanup()
	if err != nil {
		return nil, err
	}
	probed := p.interleaved(probes)
	for i := range probed {
		if err := pr.probe(i, &probed[i]); err != nil {
			return nil, fmt.Errorf("probe %d (%s): %w", i, probed[i].kind, err)
		}
	}
	m.attempted += len(probed)

	// client + internal/server
	m.set("client.read_p50_ms", quantile(plain.lat[classRead], 0.50), len(plain.lat[classRead]))
	m.set("client.write_p50_ms", quantile(plain.lat[classWrite], 0.50), len(plain.lat[classWrite]))
	m.set("client.read_p95_ms", quantile(plain.lat[classRead], 0.95), len(plain.lat[classRead]))
	m.set("client.write_p95_ms", quantile(plain.lat[classWrite], 0.95), len(plain.lat[classWrite]))
	m.set("client.write_tail_ms", quantile(plain.lat[classWrite], 0.99), len(plain.lat[classWrite]))
	m.set("client.notify_p50_ms", median(plain.notifyMs), len(plain.notifyMs))
	m.us("server.exec_handler_us", tr.named("server.exec_handler"))
	m.us("server.query_handler_us", tr.named("server.query_handler"))
	m.us("client.roundtrip_overhead_us", pr.roundtrip)
	if w.http {
		var requests, errors5xx int64
		for _, route := range []string{"exec", "query", "register", "create", "info", "list", "drop", "instance", "subscribe"} {
			requests += reg.Counter(fmt.Sprintf("logres_http_requests_total{route=%q}", route)).Value()
			for code := 500; code < 600; code++ {
				errors5xx += reg.Counter(fmt.Sprintf("logres_http_responses_total{route=%q,code=\"%d\"}", route, code)).Value()
			}
		}
		m.set("server.http_requests", float64(requests), 1)
		m.set("server.http_5xx", float64(errors5xx), 1)
		m.set("server.conflicts_409", float64(reg.Counter(`logres_http_responses_total{route="exec",code="409"}`).Value()), 1)
	}

	// internal/parser
	parse := append(tr.named("parser.module"), tr.named("parser.goal")...)
	m.us("parser.module_us", tr.named("parser.module"))
	m.us("parser.goal_us", tr.named("parser.goal"))
	m.set("parser.bytes_per_op", float64(pr.parsedBytes)/float64(len(probed)), len(probed))
	if t := sum(parse); t > 0 {
		m.set("parser.mb_per_s", float64(pr.parsedBytes)/(1<<20)/(t/1e9), len(parse))
	}

	// internal/engine, compile and fixpoint
	m.us("engine.compile_us", tr.named("engine.compile"))
	m.us("engine.footprint_us", tr.named("module.footprint"))
	m.ms("engine.fixpoint_op_ms", tr.perOp("engine.fixpoint"))
	m.us("engine.query_us", tr.named("engine.query"))
	m.us("engine.factset_freeze_us", tr.named("engine.factset_freeze"))
	m.set("engine.parallel_dispatches", float64(reg.Counter("logres_parallel_dispatches_total").Value()), 1)

	// internal/engine/ivm.go
	m.ms("ivm.build_ms", tr.named("ivm.build"))
	m.us("ivm.update_insert_us", tr.named("ivm.update_insert"))
	m.us("ivm.update_delete_us", tr.named("ivm.update_delete"))
	if pr.maint != nil {
		m.set("ivm.view_delta_facts_per_commit", sum(pr.viewDelta)/float64(len(pr.viewDelta)), len(pr.viewDelta))
		prefix, _ := pr.maint.EligibleStrata()
		m.set("ivm.eligible_strata", float64(prefix), 1)
		m.set("ivm.rebuilds", float64(reg.Counter("logres_ivm_rebuilds_total").Value()), 1)
		if checks := tr.named("instance.check_tuple"); pr.tuples > 0 {
			m.set("instance.check_tuple_ns", sum(checks)/float64(pr.tuples), pr.tuples)
		}
	}

	// internal/module
	m.us("module.apply_us", tr.named("module.apply"))
	m.us("module.apply_snapshot_us", tr.named("module.apply_snapshot"))
	m.us("module.commit_delta_us", tr.named("module.commit_delta"))
	m.us("module.state_clone_us", tr.named("module.state_clone"))

	// internal/storage
	m.us("storage.append_us", tr.named("storage.append"))
	m.us("storage.sync_us", tr.named("storage.sync"))
	m.set("storage.wal_bytes_per_commit", plain.walBytesPerCommit, plain.attempted)

	// logres root
	m.us("db.exec_us", tr.named("db.exec"))
	m.us("db.exec_concurrent_us", tr.named("db.exec_concurrent"))
	m.us("db.count_read_us", tr.named("db.count_read"))
	commits, retries, conflicts, syncs := 0, 0, 0, 0
	paths := map[string]int{}
	for _, cp := range traced.profiles {
		if cp.commitPath == "" || cp.commitPath == "read-only" {
			continue
		}
		commits++
		retries += cp.retries
		conflicts += cp.conflicts
		syncs += cp.walSyncs
		paths[cp.commitPath]++
	}
	if commits > 0 {
		m.set("db.retries_per_commit", float64(retries)/float64(commits), commits)
		m.set("db.conflicts", float64(conflicts), commits)
		m.set("db.commit_path_fast", float64(paths["fast"]), commits)
		m.set("db.commit_path_merge", float64(paths["merge"]), commits)
		m.set("db.commit_path_replace", float64(paths["replace"]), commits)
		m.set("storage.fsyncs_per_commit", float64(syncs)/float64(commits), commits)
	}

	if err := pr.oneOffs(m, p, &cfg); err != nil {
		return nil, err
	}

	// whole run
	class := w.primary()
	kindOf := func(o *op) bool { return o.write() == (class == classWrite) }
	base := quantile(plain.lat[class], 0.50)
	if base > 0 {
		m.set("trace.overhead_ratio", quantile(traced.lat[class], 0.50)/base, len(traced.lat[class]))
		// An operation's span holds its probes back to back, so the sum of
		// the self times under it is the span's own duration.
		var sums []float64
		for _, s := range tr.spans {
			if strings.HasPrefix(s.Name, "op.") && kindOf(&probed[s.Op]) {
				sums = append(sums, s.ns())
			}
		}
		// Over HTTP the blocking path also holds the server's own share
		// of a request and the wire.
		wire := 0.0
		if w.http {
			wire = (m.values["server.exec_handler_us"]-m.values["db.exec_concurrent_us"])*1e3 + m.values["client.roundtrip_overhead_us"]*1e3
		}
		m.set("trace.layer_sum_ratio", (median(sums)+wire)/1e6/base, len(sums))
	}

	return m.settled(), tr.write(filepath.Join(cfg.out, w.name+".trace.json"))
}

// drivePass sets the workload up and drives the plan once. Untraced,
// it is the traced run's baseline: no registry of the benchmark's, no
// profiles, and for the durable workload the timed crash recovery at
// the end. Traced, the database carries a registry (the server's own
// over HTTP), every call asks for its Profile, and the registry is
// returned. Oracle failures go to m.
func (w *workload) drivePass(cfg *config, p *plan, m *measured, traced bool) (*driven, *logres.Metrics, error) {
	dir, err := cfg.scratch(w.name)
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	var reg *logres.Metrics
	if traced {
		reg = logres.NewMetrics()
	}
	t, _, err := w.setUp(p, dir, reg)
	if err != nil {
		return nil, nil, err
	}
	defer func() { _ = t.close() }()
	if web, ok := t.(*overHTTP); ok && traced {
		reg = web.srv.Metrics()
	}
	d, problems, err := w.pass(t, p, traced, true)
	if err != nil {
		return nil, nil, err
	}
	for _, pb := range problems {
		m.problem("%s", pb)
	}
	if w.durable && !traced {
		secs, err := crashRecovery(t, p, dir, timedReopenings)
		if err != nil {
			m.problem("recovery: %v", err)
		}
		m.set("storage.recover_s", secs, timedReopenings)
	}
	return d, reg, nil
}

// oneOffs times the entry points the per-operation replay does not
// reach, on the state the replay ended in.
func (pr *prober) oneOffs(m *measured, p *plan, cfg *config) error {
	st := pr.st
	const reps = 5

	// The persistent program, derived from scratch under three
	// configurations: the defaults, the serial row engine, and the
	// columnar kernels.
	var closed *engine.FactSet
	var closedCounter int64
	derive := func(name string, opts engine.Options, collect *obs.ProfileCollector) (*engine.Program, error) {
		prog, err := engine.Compile(st.S, st.R, opts)
		if err != nil {
			return nil, err
		}
		if collect != nil {
			prog.SetTracer(collect)
		}
		ns, err := timed(reps, func() error {
			closedCounter = st.Counter
			closed, err = prog.Run(st.E, &closedCounter)
			return err
		})
		m.ms(name, ns)
		return prog, err
	}
	serial := pr.opts
	serial.Workers, serial.Shards = 1, 1
	if _, err := derive("engine.fixpoint_serial_ms", serial, nil); err != nil {
		return err
	}
	vec := pr.opts
	vec.Vectorize = true
	collect := obs.NewProfileCollector()
	if _, err := derive("engine.fixpoint_vec_ms", vec, collect); err != nil {
		return err
	}
	rows, strata := 0, 0
	for _, s := range collect.Profile(0).Strata {
		if s.Vectorized {
			strata++
		}
		for _, k := range s.Kernels {
			rows += k.Rows
		}
	}
	m.set("engine.vec_kernel_rows", float64(rows), 1)
	m.set("engine.vec_strata", float64(strata), 1)
	prog, err := derive("engine.fixpoint_ms", pr.opts, nil)
	if err != nil {
		return err
	}
	stats := prog.LastStats()
	firings, area := 0, 0
	for _, n := range stats.Firings {
		firings += n
	}
	for _, d := range stats.DeltaCurve {
		area += d.Delta
	}
	derived := closed.TotalSize() - st.E.TotalSize()
	m.set("engine.rules_compiled", float64(prog.NumRules()), 1)
	m.set("engine.strata", float64(stats.Strata), 1)
	m.set("engine.rounds", float64(stats.Steps), 1)
	m.set("engine.firings", float64(firings), 1)
	m.set("engine.derived_facts", float64(derived), 1)
	m.set("engine.delta_area", float64(area), 1)
	if firings > 0 {
		m.set("engine.derived_per_firing", float64(derived)/float64(firings), firings)
	}
	if m.samples["engine.query_us"] == 0 {
		goal, err := parser.ParseGoal(p.goal)
		if err != nil {
			return err
		}
		ns, err := timed(reps, func() error { _, err := prog.Query(closed, goal); return err })
		if err != nil {
			return err
		}
		m.us("engine.query_us", ns)
	}
	ns, _ := timed(reps, func() error { st.E.Clone(); return nil })
	m.us("engine.factset_clone_us", ns)

	// internal/module and internal/instance on the whole state
	if ns, err = timed(reps, func() error { _, _, err := st.Instance(pr.opts); return err }); err != nil {
		return err
	}
	m.ms("module.instance_ms", ns)
	in := engine.ToInstance(closed, st.S, closedCounter)
	if ns, err = timed(reps, in.CheckConsistency); err != nil {
		return err
	}
	m.ms("instance.consistency_ms", ns)
	if m.samples["instance.check_tuple_ns"] == 0 {
		var tuples []engine.Fact
		for _, pred := range closed.Preds() {
			for _, f := range closed.Facts(pred) {
				if !f.IsClass && !st.S.IsFunction(pred) && len(tuples) < 2000 {
					tuples = append(tuples, f)
				}
			}
		}
		if ns, err = timed(reps, func() error {
			for _, f := range tuples {
				if err := in.CheckTuple(f.Pred, f.Tuple); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
		if len(tuples) > 0 {
			m.set("instance.check_tuple_ns", median(ns)/float64(len(tuples)), len(tuples))
		}
	}
	if m.samples["db.count_read_us"] == 0 {
		if ns, err = timed(reps, func() error { _, err := pr.serial.Count(p.pred); return err }); err != nil {
			return err
		}
		m.us("db.count_read_us", ns)
	}

	pr.kernels(m, closed)
	if err := pr.persistence(m, cfg); err != nil {
		return err
	}
	if pr.w.incremental {
		return pr.fanOut(m, p)
	}
	return nil
}

// kernels times the columnar join and dedup kernels on the workload's
// own closure columns: tc ⋈ edge on tc.dst = edge.src, the join of the
// recursive closure rule, then the dedup of its output.
func (pr *prober) kernels(m *measured, closed *engine.FactSet) {
	tc, edges := closed.Facts("tc"), closed.Facts("edge")
	if len(tc) == 0 || len(edges) == 0 {
		return
	}
	dict := colset.NewDict()
	column := func(fs []engine.Fact, label string) []uint32 {
		col := make([]uint32, len(fs))
		for i, f := range fs {
			v, _ := f.Tuple.Get(label)
			col[i] = dict.Code(v)
		}
		return col
	}
	tcSrc, tcDst := column(tc, "src"), column(tc, "dst")
	eSrc, eDst := column(edges, "src"), column(edges, "dst")
	var lidx, ridx []int32
	ns, _ := timed(5, func() error {
		lidx, ridx = colset.Join([][]uint32{tcDst}, len(tc), nil, [][]uint32{eSrc}, len(edges), nil)
		return nil
	})
	if len(lidx) == 0 {
		return
	}
	m.set("colset.join_ns_per_row", median(ns)/float64(len(lidx)), len(lidx))
	out := [][]uint32{colset.Gather(tcSrc, lidx), colset.Gather(eDst, ridx)}
	ns, _ = timed(5, func() error { colset.DedupRows(out, len(lidx), nil); return nil })
	m.set("colset.dedup_ns_per_row", median(ns)/float64(len(lidx)), len(lidx))
}

// persistence times the snapshot codec on the state (every workload
// reopens from it), and for the durable workload the store's own entry
// points: compaction, and recovery of an empty and of a 1024-record
// WAL, whose difference is the replay cost per record.
func (pr *prober) persistence(m *measured, cfg *config) error {
	st := pr.st
	const reps = 5
	var buf bytes.Buffer
	ns, err := timed(reps, func() error { buf.Reset(); return storage.SaveState(&buf, st) })
	if err != nil {
		return err
	}
	m.ms("storage.save_state_ms", ns)
	raw := buf.Bytes()
	if ns, err = timed(reps, func() error { _, err := storage.LoadState(bytes.NewReader(raw)); return err }); err != nil {
		return err
	}
	m.ms("storage.load_state_ms", ns)
	if n := st.E.TotalSize(); n > 0 {
		m.set("storage.snapshot_bytes_per_fact", float64(len(raw))/float64(n), n)
	}

	log := storage.NewCommitLog(0)
	for i := 0; i < 64; i++ {
		log.Record(guard.Footprint{Writes: []string{fmt.Sprintf("q%d", i%durablePreds)}})
	}
	mine := guard.Footprint{Reads: []string{"$rules$", "$schema$", "zz"}, Writes: []string{"zz"}}
	const validations = 2000
	ns, _ = timed(reps, func() error {
		for i := 0; i < validations; i++ {
			log.Validate(0, mine)
		}
		return nil
	})
	m.set("storage.commitlog_validate_ns", median(ns)/validations, validations)

	if pr.store == nil {
		return nil
	}
	status := pr.store.Status()
	if status.WALRecords > 0 {
		m.set("storage.wal_bytes_per_record", float64(status.WALBytes)/float64(status.WALRecords), status.WALRecords)
	}
	if ns, err = timed(1, func() error { return pr.store.Compact(st, pr.store.Epoch()) }); err != nil {
		return err
	}
	m.ms("storage.compact_ms", ns)

	lengths := [2]int{0, 1024}
	var opened [2]float64
	for i, n := range lengths {
		var samples []float64
		for rep := 0; rep < 3; rep++ {
			dir, err := cfg.scratch(pr.w.name)
			if err != nil {
				return err
			}
			store, err := storage.Create(dir, st, storage.StoreOptions{Fsync: storage.FsyncOff, CompactEvery: -1})
			if err != nil {
				return err
			}
			for k := 1; k <= n && err == nil; k++ {
				f := engine.Fact{Pred: "q0", Tuple: value.NewTuple(value.Field{Label: "x", Value: value.Int(int64(durableExtraBase + k))})}
				err = store.Append(&storage.WALRecord{Type: storage.RecDelta, Epoch: uint64(k), Writes: []string{"q0"}, Adds: []engine.Fact{f}})
			}
			if cerr := store.Close(); err == nil {
				err = cerr
			}
			if err == nil {
				start := time.Now()
				var reopened *storage.Store
				reopened, _, _, err = storage.Open(dir, storage.StoreOptions{Fsync: storage.FsyncOff, CompactEvery: -1})
				samples = append(samples, float64(time.Since(start)))
				if err == nil {
					err = reopened.Close()
				}
			}
			os.RemoveAll(dir)
			if err != nil {
				return err
			}
		}
		opened[i] = median(samples)
	}
	m.set("storage.open_ms", opened[0]/1e6, 3)
	m.set("storage.replay_us_per_record", (opened[1]-opened[0])/float64(lengths[1])/1e3, lengths[1])
	return nil
}

// fanOut measures what one more subscriber costs a commit: the slope
// of the median commit latency from 0 to 8 subscribers, on commits
// that toggle one edge off the window.
func (pr *prober) fanOut(m *measured, p *plan) error {
	const commits = 60
	at := func(subscribers int) (float64, error) {
		var subs []*watcher
		defer func() {
			for _, s := range subs {
				s.finish()
			}
		}()
		for i := 0; i < subscribers; i++ {
			s, err := watch(pr.conc, commits)
			if err != nil {
				return 0, err
			}
			subs = append(subs, s)
		}
		var ns []float64
		for i := 0; i < commits; i++ {
			start := time.Now()
			if _, err := pr.conc.ExecConcurrent(p.toggle[i%2]); err != nil {
				return 0, err
			}
			ns = append(ns, float64(time.Since(start)))
		}
		return median(ns), nil
	}
	none, err := at(0)
	if err != nil {
		return err
	}
	eight, err := at(8)
	if err != nil {
		return err
	}
	m.set("db.sub_fanout_us_per_subscriber", (eight-none)/8/1e3, 2*commits)
	return nil
}
