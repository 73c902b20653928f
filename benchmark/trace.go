package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"logres"
	"logres/client"
	"logres/internal/ast"
	"logres/internal/engine"
	"logres/internal/instance"
	"logres/internal/module"
	"logres/internal/parser"
	"logres/internal/storage"
	"logres/internal/types"
)

// span is one timed call into a layer. This benchmark records spans
// from outside the program, around each layer's public entry point;
// spans of one operation share its id.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the span that caused this one, -1 for none
	Op     int    `json:"op_id"`
}

func (s span) ns() float64 { return float64(s.End - s.Start) }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	origin time.Time
	spans  []span
}

func (t *tracer) begin(name string, parent, op int) int {
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.origin)), Parent: parent, Op: op})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].End = int64(time.Since(t.origin)) }

// call times f as a span under parent.
func (t *tracer) call(name string, parent, op int, f func() error) error {
	i := t.begin(name, parent, op)
	err := f()
	t.end(i)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// named returns the durations, in ns, of the spans called name.
func (t *tracer) named(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.ns())
		}
	}
	return out
}

// perOp returns, for every operation that has spans called name, the
// sum of those spans in ns, in operation order.
func (t *tracer) perOp(name string) []float64 {
	sums := map[int]float64{}
	var order []int
	for _, s := range t.spans {
		if s.Name != name {
			continue
		}
		if _, seen := sums[s.Op]; !seen {
			order = append(order, s.Op)
		}
		sums[s.Op] += s.ns()
	}
	out := make([]float64, len(order))
	for i, op := range order {
		out[i] = sums[op]
	}
	return out
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// probes is how many operations the probe pass replays by hand.
const probes = 100

// prober replays operations through each layer's public entry point by
// hand, the way the program's own call path strings them together, on
// a shadow of the database state that every probed write advances.
// Scratch databases take the same operations in lockstep through the
// whole-call entry points.
type prober struct {
	w    *workload
	tr   *tracer
	opts engine.Options
	st   *module.State

	store  *storage.Store     // scratch store with fsync off: Append encodes and writes, Sync flushes
	maint  *engine.Maintainer // scratch maintainer over the shadow state
	serial *logres.Database   // takes every write through Exec
	conc   *logres.Database   // takes every write through ExecConcurrent; durable when the workload is
	web    *overHTTP          // takes every operation through the server's handler; nil off HTTP

	parsedBytes int
	viewDelta   []float64 // facts in the maintainer's ViewDelta, per probed commit
	roundtrip   []float64 // socket round trip minus handler, ns, per probed read
	tuples      int       // CheckTuple calls under instance.check_tuple spans
}

// newProber sets the scratch copies up from the plan, each the way the
// workload itself sets a database up.
func newProber(w *workload, p *plan, cfg *config, tr *tracer) (*prober, func(), error) {
	pr := &prober{w: w, tr: tr, opts: engine.DefaultOptions()}
	var closers []func()
	cleanup := func() {
		for _, c := range closers {
			c()
		}
	}
	open := func() (target, error) {
		dir, err := cfg.scratch(w.name)
		if err != nil {
			return nil, err
		}
		t, _, err := w.setUp(p, dir, nil)
		if err != nil {
			return nil, err
		}
		closers = append(closers, func() { _ = t.close(); os.RemoveAll(dir) })
		return t, nil
	}
	t, err := open()
	if err != nil {
		return nil, cleanup, err
	}
	b, err := saved(t.db())
	if err != nil {
		return nil, cleanup, err
	}
	if pr.st, err = storage.LoadState(bytes.NewReader(b)); err != nil {
		return nil, cleanup, err
	}
	pr.st.E.Freeze()
	if w.http {
		pr.web = t.(*overHTTP)
		if pr.conc, err = logres.Load(bytes.NewReader(b)); err != nil {
			return nil, cleanup, err
		}
	} else {
		pr.conc = t.db()
	}
	if pr.serial, err = logres.Load(bytes.NewReader(b), w.options(nil)...); err != nil {
		return nil, cleanup, err
	}
	if w.durable {
		dir, err := cfg.scratch(w.name)
		if err != nil {
			return nil, cleanup, err
		}
		closers = append(closers, func() { os.RemoveAll(dir) })
		if pr.store, err = storage.Create(dir, pr.st, storage.StoreOptions{Fsync: storage.FsyncOff, CompactEvery: -1}); err != nil {
			return nil, cleanup, err
		}
		closers = append(closers, func() { _ = pr.store.Close() })
	}
	if w.incremental {
		prog, err := engine.Compile(pr.st.S, pr.st.R, pr.opts)
		if err != nil {
			return nil, cleanup, err
		}
		if err := tr.call("ivm.build", -1, -1, func() error {
			pr.maint, err = engine.NewMaintainer(prog, pr.st.E, pr.st.Counter)
			return err
		}); err != nil {
			return nil, cleanup, err
		}
	}
	return pr, cleanup, nil
}

// probe replays one operation. id is its position in the interleaved
// schedule.
func (pr *prober) probe(id int, o *op) error {
	switch o.via {
	case viaExec:
		return pr.write(id, o)
	case viaCount:
		root := pr.tr.begin("op."+o.kind, -1, id)
		err := pr.tr.call("db.count_read", root, id, func() error {
			_, err := pr.conc.Count(o.src)
			return err
		})
		pr.tr.end(root)
		return err
	}
	return pr.read(id, o)
}

// step is one call into a layer, to be timed as a span.
type step struct {
	name string
	f    func() error
}

// run times each step as a span under parent, in order.
func (pr *prober) run(parent, id int, steps ...step) error {
	for _, s := range steps {
		if err := pr.tr.call(s.name, parent, id, s.f); err != nil {
			return err
		}
	}
	return nil
}

// instanceOf is State.Instance by hand: compile the persistent rules,
// run them over the extension, convert, audit, check the denials. It
// returns the program and the derived set.
func (pr *prober) instanceOf(parent, id int, s *types.Schema, rules []*ast.Rule, e *engine.FactSet, counter int64) (*engine.Program, *engine.FactSet, error) {
	var prog *engine.Program
	var f *engine.FactSet
	var in *instance.Instance
	err := pr.run(parent, id,
		step{"engine.compile", func() (err error) { prog, err = engine.Compile(s, rules, pr.opts); return }},
		step{"engine.fixpoint", func() (err error) { f, err = prog.Run(e, &counter); return }},
		step{"module.to_instance", func() error { in = engine.ToInstance(f, s, counter); return nil }},
		step{"instance.consistency", func() error { return in.CheckConsistency() }},
		step{"engine.denials", func() error { return prog.CheckDenials(f) }},
	)
	return prog, f, err
}

// write replays a data-variant module: the whole-call entry points
// first (their result feeds the WAL record and the maintainer), then
// the call path by hand.
func (pr *prober) write(id int, o *op) error {
	tr, st := pr.tr, pr.st
	pr.parsedBytes += len(o.src)

	m, err := parser.ParseModule(o.src)
	if err != nil {
		return err
	}
	whole := tr.begin("whole."+o.kind, -1, id)
	var sr *module.SnapshotResult
	calls := []step{
		{"module.apply", func() error { _, err := module.Apply(st, m, m.Mode, pr.opts); return err }},
		{"module.apply_snapshot", func() (err error) {
			if pr.w.incremental {
				sr, err = module.ApplySnapshotDeferred(st, m, m.Mode, pr.opts)
			} else {
				sr, err = module.ApplySnapshot(st, m, m.Mode, pr.opts)
			}
			return
		}},
		{"module.commit_delta", func() error { module.CommitDelta(st, sr); return nil }},
		{"db.exec", func() error { _, err := pr.serial.Exec(o.src); return err }},
		{"db.exec_concurrent", func() error { _, err := pr.conc.ExecConcurrent(o.src); return err }},
	}
	if pr.web != nil {
		calls = append(calls, step{"server.exec_handler", func() error { return pr.serve("exec", client.ExecRequest{Module: o.src}) }})
	}
	if err := pr.run(whole, id, calls...); err != nil {
		return err
	}
	tr.end(whole)

	root := tr.begin("op."+o.kind, -1, id)
	var next *module.State
	var prog *engine.Program
	if err := pr.run(root, id,
		step{"parser.module", func() (err error) { m, err = parser.ParseModule(o.src); return }},
		step{"module.footprint", func() error { _, err := module.StaticFootprint(st, m, m.Mode, pr.opts); return err }},
		step{"module.state_clone", func() error { next = st.Clone(); return nil }},
		step{"engine.compile", func() (err error) { prog, err = engine.Compile(next.S, m.Rules, pr.opts); return }},
		step{"engine.fixpoint", func() (err error) {
			counter := next.Counter
			next.E, err = prog.Run(next.E, &counter)
			next.Counter = counter
			return
		}},
	); err != nil {
		return err
	}
	if !pr.w.incremental {
		if _, _, err := pr.instanceOf(root, id, next.S, next.R, next.E, next.Counter); err != nil {
			return err
		}
	}
	if pr.store != nil {
		rec := &storage.WALRecord{Type: storage.RecDelta, Epoch: pr.store.Epoch() + 1, Writes: sr.Footprint.Writes,
			CounterDelta: sr.CounterDelta, Removes: sr.Removes, Adds: sr.Adds}
		if err := tr.call("storage.append", root, id, func() error { return pr.store.Append(rec) }); err != nil {
			return err
		}
		if err := tr.call("storage.sync", root, id, pr.store.Sync); err != nil {
			return err
		}
	}
	if pr.maint != nil {
		name := "ivm.update_insert"
		if len(sr.Removes) > 0 {
			name = "ivm.update_delete"
		}
		var vd *engine.ViewDelta
		if err := tr.call(name, root, id, func() (err error) {
			vd, err = pr.maint.Update(sr.Adds, sr.Removes, next.E, next.Counter)
			return
		}); err != nil {
			return err
		}
		pr.viewDelta = append(pr.viewDelta, float64(len(vd.Adds)+len(vd.Removes)))
		in := instance.New(next.S)
		if err := tr.call("instance.check_tuple", root, id, func() error {
			for _, f := range vd.Adds {
				if err := in.CheckTuple(f.Pred, f.Tuple); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
		pr.tuples += len(vd.Adds)
	}
	if err := tr.call("engine.factset_freeze", root, id, func() error { next.E.Freeze(); return nil }); err != nil {
		return err
	}
	tr.end(root)
	if !next.E.Equal(sr.Res.State.E) {
		return fmt.Errorf("probe %d (%s): the call path by hand and ApplySnapshot disagree on the new extension", id, o.kind)
	}
	pr.st = next
	return nil
}

// read replays a goal (or a RIDI module carrying one) the way
// applyRIDI evaluates it.
func (pr *prober) read(id int, o *op) error {
	tr, st := pr.tr, pr.st
	pr.parsedBytes += len(o.src)
	root := tr.begin("op."+o.kind, -1, id)
	var goal []ast.Literal
	rules := st.R
	schema := st.S
	if o.via == viaReport {
		if err := tr.call("parser.module", root, id, func() error {
			m, err := parser.ParseModule(o.src)
			if err != nil {
				return err
			}
			goal = m.Goal
			rules = append(append([]*ast.Rule{}, st.R...), m.Rules...)
			schema, err = st.S.Union(m.Schema)
			return err
		}); err != nil {
			return err
		}
	} else if err := tr.call("parser.goal", root, id, func() (err error) { goal, err = parser.ParseGoal(o.src); return }); err != nil {
		return err
	}
	var work *module.State
	if err := tr.call("module.state_clone", root, id, func() error { work = st.Clone(); return nil }); err != nil {
		return err
	}
	_, f, err := pr.instanceOf(root, id, schema, rules, work.E, work.Counter)
	if err != nil {
		return err
	}
	var prog *engine.Program
	if err := tr.call("engine.compile", root, id, func() (err error) { prog, err = engine.Compile(schema, rules, pr.opts); return }); err != nil {
		return err
	}
	if err := tr.call("engine.query", root, id, func() error { _, err := prog.Query(f, goal); return err }); err != nil {
		return err
	}
	tr.end(root)

	if pr.web == nil {
		return nil
	}
	whole := tr.begin("whole."+o.kind, -1, id)
	defer tr.end(whole)
	handler, route, body := "server.query_handler", "query", any(client.QueryRequest{Goal: o.src})
	if o.via == viaReport {
		handler, route, body = "server.exec_handler", "exec", client.ExecRequest{Module: o.src}
	}
	// Whichever of the two goes second finds the caches warm, so they
	// take turns going first and the bias falls out of the median.
	var h, c int
	viaHandler := func() error {
		h = tr.begin(handler, whole, id)
		err := pr.serve(route, body)
		tr.end(h)
		return err
	}
	viaSocket := func() error {
		c = tr.begin("client.roundtrip", whole, id)
		_, err := pr.web.do(0, o, nil)
		tr.end(c)
		return err
	}
	order := []func() error{viaHandler, viaSocket}
	if id%2 == 1 {
		order[0], order[1] = order[1], order[0]
	}
	for _, f := range order {
		if err := f(); err != nil {
			return err
		}
	}
	pr.roundtrip = append(pr.roundtrip, tr.spans[c].ns()-tr.spans[h].ns())
	return nil
}

// serve runs one request through the scratch server's handler on a
// recorder: the server's share of a request, with no socket.
func (pr *prober) serve(route string, body any) error {
	raw, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/db/"+pr.web.name+"/"+route, bytes.NewReader(raw))
	rec := httptest.NewRecorder()
	pr.web.srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("handler answered %d: %s", rec.Code, rec.Body.String())
	}
	return nil
}
