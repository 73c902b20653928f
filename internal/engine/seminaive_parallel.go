package engine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Parallel semi-naive evaluation. A semi-naive-eligible stratum is monotone:
// no deletions, no oid invention, no o-value overwrites (see
// stratumSemiNaiveEligible), so every derivation is a pure value-level fact
// and the union of the per-pass deltas does not depend on execution order.
// Each round's (rule × delta-position) passes are therefore split into
// tasks — additionally chunking the facts the first body literal ranges
// over, so a single recursive rule still saturates the pool — and run on a
// worker pool. Workers match against a frozen snapshot of the current fact
// set (pre-built sorted slices and component buckets, no lazy cache
// mutation; see FactSet.Freeze) and accumulate into private delta sets;
// the merge walks tasks in deterministic task order, making the result
// bit-identical to serial evaluation for any worker count.

// snTask is one unit of parallel work: one rule, one delta position (-1 for
// the round-0 full pass), and optionally a chunk of the facts the first
// body literal ranges over (chunk ⊆ delta when deltaPos == 0, chunk ⊆ the
// current extension otherwise).
type snTask struct {
	rule     *crule
	deltaPos int
	chunk    []Fact
	chunked  bool
}

// chunkableFirst reports whether a rule's first (ordered) body literal is a
// positive predicate literal whose extension can be partitioned.
func chunkableFirst(r *crule) (resolvedLit, bool) {
	if len(r.body) == 0 {
		return resolvedLit{}, false
	}
	l := r.body[0]
	if (l.kind == pkClass || l.kind == pkAssoc) && !l.negated {
		return l, true
	}
	return resolvedLit{}, false
}

// chunkBounds returns the [lo, hi) ranges that split n items into a few
// chunks per worker (empty ranges omitted).
func chunkBounds(n, workers int) [][2]int {
	k := 4 * workers
	if k > n {
		k = n
	}
	bounds := make([][2]int, 0, k)
	for i := 0; i < k; i++ {
		lo, hi := i*n/k, (i+1)*n/k
		if lo < hi {
			bounds = append(bounds, [2]int{lo, hi})
		}
	}
	return bounds
}

// appendChunked splits facts into a few chunks per worker and appends one
// task per non-empty chunk.
func appendChunked(tasks []snTask, r *crule, deltaPos int, facts []Fact, workers int) []snTask {
	for _, b := range chunkBounds(len(facts), workers) {
		tasks = append(tasks, snTask{rule: r, deltaPos: deltaPos, chunk: facts[b[0]:b[1]], chunked: true})
	}
	return tasks
}

// round0Tasks builds the full-evaluation pass of every rule.
func round0Tasks(stratum []*crule, cur *FactSet, workers int) []snTask {
	var tasks []snTask
	for _, r := range stratum {
		if l0, ok := chunkableFirst(r); ok {
			tasks = appendChunked(tasks, r, -1, cur.Facts(l0.pred), workers)
		} else {
			tasks = append(tasks, snTask{rule: r, deltaPos: -1})
		}
	}
	return tasks
}

// deltaTasks builds the per-round passes: one task group per (rule,
// delta-position) whose delta extension is non-empty.
func deltaTasks(stratum []*crule, cur, delta *FactSet, workers int) []snTask {
	var tasks []snTask
	for _, r := range stratum {
		for pos, l := range r.body {
			if l.kind != pkClass && l.kind != pkAssoc {
				continue
			}
			if l.negated {
				continue
			}
			if delta.Size(l.pred) == 0 {
				continue
			}
			if pos == 0 {
				// The delta-restricted literal is the partition axis.
				tasks = appendChunked(tasks, r, 0, delta.Facts(l.pred), workers)
				continue
			}
			if l0, ok := chunkableFirst(r); ok {
				tasks = appendChunked(tasks, r, pos, cur.Facts(l0.pred), workers)
			} else {
				tasks = append(tasks, snTask{rule: r, deltaPos: pos})
			}
		}
	}
	return tasks
}

// runSNTask evaluates one task into the private delta out. The context's
// fact set (and delta, if any) must be frozen.
func (c *evalCtx) runSNTask(t snTask, out *FactSet) error {
	r := t.rule
	dminus := NewFactSet() // defensively unused: eligible strata never delete
	yield := func(e *env) error {
		return c.instantiateHead(r, e, out, dminus)
	}
	if !t.chunked {
		if t.deltaPos < 0 {
			return c.matchBody(r.body, 0, newEnv(), yield)
		}
		return c.matchBodyDelta(r.body, 0, t.deltaPos, c.delta, newEnv(), yield)
	}
	for _, fact := range t.chunk {
		e := newEnv()
		ok, err := c.matchFact(r.body[0], fact, e)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		if t.deltaPos <= 0 {
			if err := c.matchBody(r.body, 1, e, yield); err != nil {
				return err
			}
		} else {
			if err := c.matchBodyDelta(r.body, 1, t.deltaPos, c.delta, e, yield); err != nil {
				return err
			}
		}
	}
	return nil
}

// snParallelCutoff is the live probe size (round 0: the current
// extension; delta rounds: the delta — the same per-round signal
// Stats.DeltaCurve records) below which a parallel round skips worker
// fan-out and runs its passes inline: partitioning and merging a
// near-empty round costs more than the matching itself. The convergence
// tail of a deep recursion (many rounds of tiny deltas) is the common
// case. A variable so tests can move it.
var snParallelCutoff = 256

// runSNTasks runs one round's tasks and merges the private deltas (and
// per-task stats) in task order; the merge fans one goroutine per
// FactSet shard (Options.Shards) and stays bit-identical to the serial
// task-order merge. Rounds whose probe size is under snParallelCutoff
// run the same task list inline on this goroutine instead (identical
// results: same tasks, same order, same dedup) and record no
// parallel.dispatch event.
func (p *Program) runSNTasks(round int, tasks []snTask, cur, delta *FactSet, counter *int64, probe int) (*FactSet, error) {
	if probe < snParallelCutoff {
		return p.runSNTasksInline(round, tasks, cur, delta, counter)
	}
	p.traceParallelDispatch(round, len(tasks), probe)
	workers := p.opts.Workers
	if workers > len(tasks) {
		workers = len(tasks)
	}
	results := make([]*FactSet, len(tasks))
	taskStats := make([]*Stats, len(tasks))
	errs := make([]error, len(tasks))
	base := *counter
	g := p.curGuard()
	var nextTask int64 = -1
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := atomic.AddInt64(&nextTask, 1)
				if i >= int64(len(tasks)) || g.TaskAborted() {
					return
				}
				t := tasks[i]
				out := NewFactSetShards(p.opts.Shards)
				var st *Stats
				if p.stats != nil {
					st = newStats()
				}
				localCounter := base
				c := &evalCtx{p: p, f: cur, counter: &localCounter, deltaIdx: -1, delta: delta, stats: st,
					g: p.armedGuard(), round: round}
				errs[i] = p.runShielded(t.rule, func() error { return c.runSNTask(t, out) })
				results[i], taskStats[i] = out, st
			}
		}()
	}
	wg.Wait()

	for i := range tasks {
		if errs[i] != nil {
			return nil, errs[i]
		}
		if taskStats[i] != nil {
			if taskStats[i].Invented > 0 {
				return nil, fmt.Errorf("engine: internal: oid invention inside a parallel semi-naive stratum")
			}
			if p.stats != nil {
				for id, n := range taskStats[i].Firings {
					p.stats.Firings[id] += n
				}
			}
		}
	}
	if g.TaskAborted() {
		// Cancellation stopped workers mid-round without a task error;
		// surface it rather than merging a partial task set.
		if err := g.Check(round, cur.TotalSize, p.invented()); err != nil {
			return nil, err
		}
	}
	merged := NewFactSetShards(p.opts.Shards)
	p.recordMerge(round, merged.MergeOrdered(results))
	return merged, nil
}

// runSNTasksInline is the small-round fast path: the round's tasks run
// sequentially on the calling goroutine, emitting straight into one
// delta set in task order — the same fact set the worker-pool path
// produces by ordered merge, without goroutines, private deltas, or
// per-task stats.
func (p *Program) runSNTasksInline(round int, tasks []snTask, cur, delta *FactSet, counter *int64) (*FactSet, error) {
	out := NewFactSetShards(p.opts.Shards)
	c := &evalCtx{p: p, f: cur, counter: counter, deltaIdx: -1, delta: delta,
		stats: p.stats, g: p.armedGuard(), round: round, orchestrator: true}
	for _, t := range tasks {
		if err := p.runShielded(t.rule, func() error { return c.runSNTask(t, out) }); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// semiNaiveParallel is the worker-pool delta iteration; results are
// identical to semiNaiveSerial.
func (p *Program) semiNaiveParallel(stratum []*crule, f *FactSet, counter *int64) (*FactSet, error) {
	workers := p.opts.Workers
	if p.stats != nil {
		p.stats.Workers = workers
		p.stats.Shards = p.opts.Shards
	}
	cur := f.CloneShards(p.opts.Shards)
	cur.FreezeParallel(workers)

	p.traceRoundBegin(0)
	start := time.Now()
	tasks := round0Tasks(stratum, cur, workers)
	delta, err := p.runSNTasks(0, tasks, cur, nil, counter, cur.TotalSize())
	if err != nil {
		cur.Thaw()
		return nil, err
	}
	p.recordRound(0, len(tasks), time.Since(start))
	p.traceRoundEnd(0, delta.TotalSize(), cur.TotalSize(), start)

	for round := 0; delta.TotalSize() > 0; round++ {
		if err := p.checkRound(round, cur.TotalSize, "semi-naive delta iteration"); err != nil {
			cur.Thaw()
			return nil, err
		}
		if p.stats != nil {
			p.stats.Steps++
		}
		p.traceRoundBegin(round + 1)
		start := time.Now()
		cur.Thaw()
		p.recordMerge(round+1, cur.MergeOrdered([]*FactSet{delta}))
		cur.FreezeParallel(workers)
		delta.FreezeParallel(workers)
		tasks := deltaTasks(stratum, cur, delta, workers)
		next, err := p.runSNTasks(round+1, tasks, cur, delta, counter, delta.TotalSize())
		if err != nil {
			cur.Thaw()
			return nil, err
		}
		p.recordRound(round+1, len(tasks), time.Since(start))
		p.traceRoundEnd(round+1, next.TotalSize(), cur.TotalSize(), start)
		delta = next
	}
	cur.Thaw()
	return cur, nil
}

// recordRound appends one per-round parallel timing record to the stats.
func (p *Program) recordRound(round, tasks int, d time.Duration) {
	if p.stats == nil {
		return
	}
	p.stats.RoundTimings = append(p.stats.RoundTimings, RoundTiming{Round: round, Tasks: tasks, Duration: d})
}

// recordMerge appends the per-shard timing record of one ordered delta
// merge to the stats (single-shard serial merges are skipped) and
// emits the corresponding merge trace event.
func (p *Program) recordMerge(round int, ms MergeStats) {
	p.traceMerge(round, ms)
	if p.stats == nil || len(ms.ShardDurations) == 0 {
		return
	}
	p.stats.MergeTimings = append(p.stats.MergeTimings, MergeTiming{
		Round:          round,
		Shards:         ms.Shards,
		ShardDurations: ms.ShardDurations,
	})
}
