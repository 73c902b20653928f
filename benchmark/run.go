package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"logres"
)

// workload is one of the benchmark's four traffic shapes. Everything
// the program under test receives comes out of gen.
type workload struct {
	name string
	gen  func(seed int64, ops int) *plan
	// rate fixes the operation count at rate × seconds. It was sized on
	// the seed commit so that the timed phase lasts about that many
	// seconds; the count, not the clock, ends a run, so that every
	// commit is measured on identical work and the counters repeat.
	rate    float64
	clients int // closed-loop clients, at most 2: the machine has 2 cores

	http        bool // behind internal/server on a loopback listener
	durable     bool // OpenDurable, FsyncAlways, default CompactEvery
	incremental bool // WithIncremental, with one SubscribeView consumer
	concurrent  bool // writes through ExecConcurrent

	// reference, when set, fills in expected replies the generator's
	// model cannot know, from a derivation of its own.
	reference func(*plan) error
	// readsFirst marks the workload whose primary operations are reads
	// rather than writes. op_p50_ms and the trace.* ratios are taken on
	// the primary class.
	readsFirst bool
}

var workloads = []workload{
	{name: "closure_batch", gen: genClosure, rate: 19.5, clients: 1, reference: closureOracle, readsFirst: true},
	{name: "registrar_http", gen: genRegistrar, rate: 80, clients: 2, http: true},
	{name: "durable_commit", gen: genDurable, rate: 1530, clients: 2, durable: true, concurrent: true},
	{name: "monitor_ivm", gen: genMonitor, rate: 115, clients: 1, incremental: true, concurrent: true},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// primary is the class of the workload's primary operations.
func (w *workload) primary() int {
	if w.readsFirst {
		return classRead
	}
	return classWrite
}

// options are the database options the workload states; m is the
// traced run's registry and nil otherwise.
func (w *workload) options(m *logres.Metrics) []logres.Option {
	var opts []logres.Option
	if w.incremental {
		opts = append(opts, logres.WithIncremental(true))
	}
	if m != nil {
		opts = append(opts, logres.WithMetrics(m))
	}
	return opts
}

func (w *workload) open(schema, dir string, m *logres.Metrics) (target, error) {
	switch {
	case w.http:
		return openHTTP(schema, w.clients)
	case w.durable:
		d, _, err := logres.OpenDurable(schema, logres.Durability{Dir: dir, Fsync: logres.FsyncAlways}, w.options(m)...)
		if err != nil {
			return nil, err
		}
		return &embedded{d: d, concurrent: w.concurrent}, nil
	}
	d, err := logres.Open(schema, w.options(m)...)
	if err != nil {
		return nil, err
	}
	return &embedded{d: d, concurrent: w.concurrent}, nil
}

// setUp is what setup_s times: open, preload, rule install, and the
// warm-up read.
func (w *workload) setUp(p *plan, dir string, m *logres.Metrics) (target, time.Duration, error) {
	start := time.Now()
	t, err := w.open(p.schema, dir, m)
	if err != nil {
		return nil, 0, err
	}
	if err := load(t, p, nil); err != nil {
		_ = t.close()
		return nil, 0, err
	}
	r, err := t.do(0, &p.warm, nil)
	if err == nil && !p.warm.verify(r) {
		err = fmt.Errorf("warm-up read %q: unexpected reply", p.warm.src)
	}
	if err != nil {
		_ = t.close()
		return nil, 0, err
	}
	return t, time.Since(start), nil
}

// load stores the plan's methods and applies its preload, then extra.
func load(t target, p *plan, extra []string) error {
	for _, src := range p.registers {
		if err := t.register(src); err != nil {
			return fmt.Errorf("register: %w", err)
		}
	}
	for _, src := range append(append([]string{}, p.preload...), extra...) {
		if err := t.exec(src); err != nil {
			return fmt.Errorf("preload: %w", err)
		}
	}
	return nil
}

// verify checks a reply against what the generator's model expects.
func (o *op) verify(r reply) bool {
	if !o.check {
		return true
	}
	if o.via == viaCount {
		return r.count == o.count
	}
	col := -1
	for i, v := range r.vars {
		if v == o.col {
			col = i
		}
	}
	if o.col != "" && col < 0 && len(r.rows) > 0 {
		return false
	}
	got := make([]string, len(r.rows))
	for i, row := range r.rows {
		if o.col == "" {
			got[i] = strings.Join(row, ",")
		} else {
			got[i] = row[col]
		}
	}
	sort.Strings(got)
	if len(got) != len(o.want) {
		return false
	}
	for i := range got {
		if got[i] != o.want[i] {
			return false
		}
	}
	return true
}

const (
	classRead  = 0
	classWrite = 1
)

// driven is what one pass over the plan's operations observed.
type driven struct {
	elapsed   time.Duration
	lat       [2][]float64 // caller-observed ms of the operations that succeeded, by class
	attempted int
	failed    int
	// failedWrites is the part of failed that never committed.
	failedWrites int
	firstErr     error
	alloc        uint64 // TotalAlloc over the pass
	profiles     []callProfile
	// submitted holds, for client 0's i-th write, when it was sent.
	submitted []time.Time
	// notifyMs holds, per commit, the time from sending it to its
	// ViewDiff reaching the subscriber (incremental workloads).
	notifyMs []float64
	// walBytesPerCommit comes from Durability() status deltas (durable
	// workloads, when metered).
	walBytesPerCommit float64
}

// drive runs every client's operations as a closed loop: a client
// sends its next operation when the reply to the previous one has
// arrived and been checked. With traced set every call carries
// WithCallProfile (or the wire's profile flag).
func drive(t target, p *plan, traced bool, meter *walMeter) (*driven, error) {
	type clientLog struct {
		lat       [2][]float64
		failed    [2]int
		firstErr  error
		sinks     []*profileSink
		submitted []time.Time
	}
	logs := make([]clientLog, len(p.clients))
	for g, ops := range p.clients {
		logs[g].lat[classRead] = make([]float64, 0, len(ops))
		logs[g].lat[classWrite] = make([]float64, 0, len(ops))
		logs[g].submitted = make([]time.Time, 0, len(ops))
		if traced {
			logs[g].sinks = make([]*profileSink, 0, len(ops))
		}
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var wg sync.WaitGroup
	start := time.Now()
	for g := range p.clients {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			l := &logs[g]
			for i := range p.clients[g] {
				o := &p.clients[g][i]
				var sink *profileSink
				if traced && o.via != viaCount {
					sink = &profileSink{}
					l.sinks = append(l.sinks, sink)
				}
				sent := time.Now()
				r, err := t.do(g, o, sink)
				ms := float64(time.Since(sent)) / float64(time.Millisecond)
				if o.write() {
					l.submitted = append(l.submitted, sent)
					if meter != nil {
						meter.sample(t.db())
					}
				}
				if err == nil && !o.verify(r) {
					err = fmt.Errorf("%s %q: reply differs from the model", o.kind, o.src)
				}
				class := classRead
				if o.write() {
					class = classWrite
				}
				if err != nil {
					l.failed[class]++
					if l.firstErr == nil {
						l.firstErr = err
					}
					continue
				}
				l.lat[class] = append(l.lat[class], ms)
			}
		}(g)
	}
	wg.Wait()
	d := &driven{elapsed: time.Since(start), attempted: p.ops()}
	runtime.ReadMemStats(&after)
	d.alloc = after.TotalAlloc - before.TotalAlloc
	for g := range logs {
		l := &logs[g]
		for c := range l.lat {
			d.lat[c] = append(d.lat[c], l.lat[c]...)
		}
		d.failed += l.failed[classRead] + l.failed[classWrite]
		d.failedWrites += l.failed[classWrite]
		if d.firstErr == nil {
			d.firstErr = l.firstErr
		}
		for _, s := range l.sinks {
			cp, err := s.reduce()
			if err != nil {
				return nil, err
			}
			d.profiles = append(d.profiles, cp)
		}
	}
	d.submitted = logs[0].submitted
	if meter != nil && meter.commits > 0 {
		d.walBytesPerCommit = float64(meter.bytes) / float64(meter.commits)
	}
	return d, nil
}

// walMeter turns the Durability() status each committer reads after
// its commit into WAL bytes per commit. A delta counts only between
// two samples of one WAL file: a compaction in between starts a new
// one.
type walMeter struct {
	mu      sync.Mutex
	last    logres.DurabilityStatus
	started bool
	bytes   int64
	commits uint64
}

func (m *walMeter) sample(d *logres.Database) {
	st, ok := d.Durability()
	if !ok {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.started && st.Epoch < m.last.Epoch {
		return // the other client's later sample got here first
	}
	if m.started && st.CheckpointEpoch == m.last.CheckpointEpoch {
		m.bytes += st.WALBytes - m.last.WALBytes
		m.commits += st.Epoch - m.last.Epoch
	}
	m.last, m.started = st, true
}

// pass drives the plan once over a database that has been set up, with
// monitor_ivm's subscriber beside it, and returns what it observed and
// what the subscription oracle found wrong.
func (w *workload) pass(t target, p *plan, traced, metered bool) (*driven, []string, error) {
	var problems []string
	var wt *watcher
	writes, tcBefore := 0, 0
	if w.incremental {
		for _, o := range p.clients[0] {
			if o.write() {
				writes++
			}
		}
		var err error
		if wt, err = watch(t.db(), writes); err != nil {
			return nil, nil, err
		}
		if tcBefore, err = t.db().Count("tc"); err != nil {
			return nil, nil, err
		}
	}
	var meter *walMeter
	if metered && w.durable {
		meter = &walMeter{}
	}
	d, err := drive(t, p, traced, meter)
	if wt != nil {
		wt.finish()
	}
	if err != nil {
		return nil, nil, err
	}
	if wt != nil {
		if err := wt.inOrder(writes - d.failedWrites); err != nil {
			problems = append(problems, "subscription: "+err.Error())
		}
		tcAfter, err := t.db().Count("tc")
		if err != nil {
			return nil, nil, err
		}
		if wt.netFacts != tcAfter-tcBefore {
			problems = append(problems, fmt.Sprintf("subscription: diffs sum to %+d facts, the view moved by %+d", wt.netFacts, tcAfter-tcBefore))
		}
		for i := 0; i < len(wt.arrived) && i < len(d.submitted) && d.failedWrites == 0; i++ {
			d.notifyMs = append(d.notifyMs, float64(wt.arrived[i].Sub(d.submitted[i]))/float64(time.Millisecond))
		}
	}
	if d.firstErr != nil {
		problems = append(problems, fmt.Sprintf("%d of %d operations failed, first: %v", d.failed, d.attempted, d.firstErr))
	}
	return d, problems, nil
}

// watcher is monitor_ivm's SubscribeView consumer, subscribed to the
// closure: it stamps each ViewDiff on arrival and keeps what the
// ordering check needs.
type watcher struct {
	sub      *logres.Subscription
	done     chan struct{}
	arrived  []time.Time
	epochs   []uint64
	netFacts int // Σ adds − removes over all diffs
}

func watch(d *logres.Database, expect int) (*watcher, error) {
	// The buffer covers the whole run: the consumer shares two cores
	// with the committer and must never be the reason a commit's diff
	// is dropped.
	sub, err := d.SubscribeView(logres.SubscribeOptions{Preds: []string{"tc"}, Buffer: expect + 16})
	if err != nil {
		return nil, err
	}
	w := &watcher{sub: sub, done: make(chan struct{}),
		arrived: make([]time.Time, 0, expect), epochs: make([]uint64, 0, expect)}
	go func() {
		defer close(w.done)
		for diff := range sub.C {
			w.arrived = append(w.arrived, time.Now())
			w.epochs = append(w.epochs, diff.Epoch)
			w.netFacts += len(diff.Adds) - len(diff.Removes)
		}
	}()
	return w, nil
}

// finish ends the subscription and waits for the consumer, which
// still receives what the closed channel had buffered.
func (w *watcher) finish() {
	w.sub.Close()
	<-w.done
}

// inOrder reports whether every epoch after start arrived exactly
// once, in order.
func (w *watcher) inOrder(commits int) error {
	if err := w.sub.Err(); err != nil {
		return err
	}
	if len(w.epochs) != commits {
		return fmt.Errorf("subscriber saw %d diffs for %d commits", len(w.epochs), commits)
	}
	for i, e := range w.epochs {
		if e != w.sub.Epoch+uint64(i)+1 {
			return fmt.Errorf("diff %d carries epoch %d, want %d", i, e, w.sub.Epoch+uint64(i)+1)
		}
	}
	return nil
}

// saved returns the database's Save bytes.
func saved(d *logres.Database) ([]byte, error) {
	var buf bytes.Buffer
	err := d.Save(&buf)
	return buf.Bytes(), err
}

// expected builds, in a fresh in-memory database with default options
// and no maintenance, the state the model says the run must end in:
// the same set-up, then the plan's final modules (and extra).
func expected(p *plan, extra []string) (*logres.Database, error) {
	d, err := logres.Open(p.schema)
	if err != nil {
		return nil, err
	}
	return d, load(&embedded{d: d}, p, append(append([]string{}, p.final...), extra...))
}

// sameState is the final-state oracle: got's Save bytes and derived
// instance must equal those of the model's bulk replay.
func sameState(got *logres.Database, p *plan, extra []string) error {
	want, err := expected(p, extra)
	if err != nil {
		return fmt.Errorf("oracle: building the expected state: %w", err)
	}
	gb, err := saved(got)
	if err != nil {
		return err
	}
	wb, err := saved(want)
	if err != nil {
		return err
	}
	if !bytes.Equal(gb, wb) {
		return fmt.Errorf("oracle: Save bytes differ from the model replay (%d vs %d bytes)", len(gb), len(wb))
	}
	gi, err := got.InstanceString()
	if err != nil {
		return err
	}
	wi, err := want.InstanceString()
	if err != nil {
		return err
	}
	if gi != wi {
		return fmt.Errorf("oracle: derived instance differs from a scratch derivation of the model state")
	}
	return nil
}

// A crash image is recovered timedReopenings times where recovery is
// timed (the traced run), and checkedReopenings times where it is only
// checked (the end-to-end run).
const (
	timedReopenings   = 15
	checkedReopenings = 3
)

// copyDir copies a store's data directory file by file, the way a
// crash image is taken: whatever bytes are there when each is read.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			// A snapshot removed by a compaction between ReadDir and
			// the copy is not part of the image.
			if os.IsNotExist(err) {
				continue
			}
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// crashRecovery is durable_commit's last act. While the store is still
// open (no Close, no final Sync) and a straggler is still committing,
// the data directory is copied; the copy is opened reopenings times
// and each recovered state must hold every commit acknowledged before
// the copy began and, of the straggler's, a prefix: acknowledged ⊆
// recovered ⊆ acknowledged + in-flight. It returns the median time of
// an opening up to its first answer, in seconds.
func crashRecovery(t target, p *plan, dir string, reopenings int) (float64, error) {
	const stragglers = 64
	image := dir + ".crash"
	errc := make(chan error, 1)
	go func() {
		for i := 0; i < stragglers; i++ {
			src := "mode ridv.\nrules " + kvFact(0, durableExtraBase+i) + "\nend.\n"
			if _, err := t.db().ExecConcurrent(src); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	err := copyDir(dir, image)
	if serr := <-errc; err == nil {
		err = serr
	}
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(image)

	var secs []float64
	for i := 0; i < reopenings; i++ {
		// Recovery may repair the image (truncate a torn tail), so each
		// opening gets its own copy.
		attempt := fmt.Sprintf("%s.%d", image, i)
		if err := copyDir(image, attempt); err != nil {
			return 0, err
		}
		start := time.Now()
		d, _, err := logres.OpenDurable("", logres.Durability{Dir: attempt, Fsync: logres.FsyncAlways})
		if err == nil {
			_, err = d.Query(p.warm.src) // recovered means answering again
		}
		took := time.Since(start).Seconds()
		if err == nil {
			err = recoveredWithin(d, p, stragglers)
		}
		if d != nil {
			_ = d.Close()
		}
		os.RemoveAll(attempt)
		if err != nil {
			return 0, err
		}
		secs = append(secs, took)
	}
	return median(secs), nil
}

// recoveredWithin checks a recovered database against the model: its
// state is the model's final state plus the first k straggler commits,
// for some k.
func recoveredWithin(d *logres.Database, p *plan, stragglers int) error {
	a, err := d.Query(fmt.Sprintf("?- q0(x: X), X >= %d.", durableExtraBase))
	if err != nil {
		return err
	}
	k := len(a.Rows)
	if k > stragglers {
		return fmt.Errorf("oracle: recovered %d in-flight commits of %d", k, stragglers)
	}
	var prefix []string
	for i := 0; i < k; i++ {
		prefix = append(prefix, kvFact(0, durableExtraBase+i))
	}
	var extra []string
	if k > 0 {
		extra = []string{moduleSrc("ridv", prefix)}
	}
	return sameState(d, p, extra)
}

// measured is one run's outcome: the metrics by name, each with the
// number of samples behind it.
type measured struct {
	correct   bool
	attempted int
	failed    int
	values    map[string]float64
	samples   map[string]int
	problems  []string
}

func newMeasured() *measured {
	return &measured{correct: true, values: map[string]float64{}, samples: map[string]int{}}
}

// us and ms set a metric to the median of ns samples, in µs or ms.
func (m *measured) us(name string, ns []float64) { m.set(name, median(ns)/1e3, len(ns)) }
func (m *measured) ms(name string, ns []float64) { m.set(name, median(ns)/1e6, len(ns)) }

// settled closes a run's account: a failed oracle is a failed run even
// when every reply looked right.
func (m *measured) settled() *measured {
	if !m.correct && m.failed == 0 {
		m.failed = 1
	}
	return m
}

func (m *measured) set(name string, v float64, n int) {
	m.values[name] = v
	m.samples[name] = n
}

func (m *measured) problem(format string, args ...any) {
	m.correct = false
	m.problems = append(m.problems, fmt.Sprintf(format, args...))
}

// Set-up is repeated, for a steady median: at least minSetUps times,
// and for a workload that sets up in milliseconds until setUpBudget has
// been spent or maxSetUps reached.
const (
	minSetUps   = 5
	maxSetUps   = 201
	setUpBudget = 1500 * time.Millisecond
)

// plan generates the workload's plan, expected replies included.
func (w *workload) plan(seed int64, ops int) (*plan, error) {
	p := w.gen(seed, ops)
	if w.reference != nil {
		if err := w.reference(p); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// endToEnd is the untraced run.
func (w *workload) endToEnd(cfg config) (*measured, error) {
	p, err := w.plan(cfg.seed, cfg.ops(w))
	if err != nil {
		return nil, err
	}
	return w.measure(cfg, p)
}

// measure runs a plan untraced: set-up (several times, for a steady
// setup_s), the timed closed loop, and the oracles.
func (w *workload) measure(cfg config, p *plan) (*measured, error) {
	m := newMeasured()

	var t target
	var dir string
	var setupSecs []float64
	var spent time.Duration
	for i := 0; i < minSetUps || i < maxSetUps && spent < cfg.budget(setUpBudget); i++ {
		if t != nil {
			if err := t.close(); err != nil {
				return nil, err
			}
			os.RemoveAll(dir)
		}
		var err error
		if dir, err = cfg.scratch(w.name); err != nil {
			return nil, err
		}
		var took time.Duration
		if t, took, err = w.setUp(p, dir, nil); err != nil {
			return nil, err
		}
		setupSecs = append(setupSecs, took.Seconds())
		spent += took
	}
	defer os.RemoveAll(dir)
	defer func() { _ = t.close() }()
	m.set("setup_s", median(setupSecs), len(setupSecs))

	d, problems, err := w.pass(t, p, false, false)
	if err != nil {
		return nil, err
	}
	for _, pb := range problems {
		m.problem("%s", pb)
	}
	m.attempted, m.failed = d.attempted, d.failed
	done := d.attempted - d.failed
	m.set("ops_per_s", float64(done)/d.elapsed.Seconds(), done)
	primary := d.lat[w.primary()]
	m.set("op_p50_ms", quantile(primary, 0.50), len(primary))
	m.set("alloc_kb_per_op", float64(d.alloc)/1024/float64(d.attempted), d.attempted)

	rss, err := residentMiB()
	if err != nil {
		return nil, err
	}
	m.set("rss_mb", rss, 1)

	if w.durable {
		_, err = crashRecovery(t, p, dir, checkedReopenings)
	} else {
		err = sameState(t.db(), p, nil)
	}
	if err != nil {
		m.problem("%v", err)
	}
	return m.settled(), nil
}
