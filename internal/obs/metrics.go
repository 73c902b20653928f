package obs

import (
	"expvar"
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Metrics is a lock-cheap metrics registry: counters and gauges are
// single atomics, histograms are fixed log₂ buckets of atomics, and the
// registry lock is taken only on first registration of a name. Values
// are published through expvar (PublishExpvar) and rendered as
// Prometheus text exposition format (WriteTo).
//
// Metric names may carry a Prometheus label suffix — e.g.
// `logres_aborts_total{axis="facts"}` — which WriteTo groups into one
// TYPE family per base name.
type Metrics struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter is a monotonically increasing counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a last-value metric.
type Gauge struct{ v atomic.Int64 }

// Set records the current value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Value returns the last recorded value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram accumulates observations into 65 log₂ buckets (bucket i
// holds values whose bit length is i, i.e. [2^(i-1), 2^i)), giving
// quantile estimates within a factor of two at a fixed, tiny memory
// cost and atomic-add observation.
type Histogram struct {
	buckets [65]atomic.Int64
	sum     atomic.Int64
	count   atomic.Int64
}

// Observe records one value (negative values clamp to zero).
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bits.Len64(uint64(v))].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Quantile estimates the q-quantile (0 < q ≤ 1) as the upper bound of
// the bucket containing it; returns 0 with no observations.
func (h *Histogram) Quantile(q float64) int64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	target := int64(q * float64(total))
	if target < 1 {
		target = 1
	}
	var seen int64
	for i := range h.buckets {
		seen += h.buckets[i].Load()
		if seen >= target {
			if i == 0 {
				return 0
			}
			if i >= 63 {
				return math.MaxInt64
			}
			return (int64(1) << i) - 1
		}
	}
	return math.MaxInt64
}

// Counter returns (registering on first use) the named counter. Panics
// if the name is already registered as a gauge or histogram — a silent
// shadow would split one name across two exposition types.
func (m *Metrics) Counter(name string) *Counter {
	m.mu.RLock()
	c := m.counters[name]
	m.mu.RUnlock()
	if c != nil {
		return c
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if c = m.counters[name]; c == nil {
		m.checkUnregisteredLocked(name, "counter")
		c = &Counter{}
		m.counters[name] = c
	}
	return c
}

// Gauge returns (registering on first use) the named gauge. Panics on a
// name already registered as a counter or histogram.
func (m *Metrics) Gauge(name string) *Gauge {
	m.mu.RLock()
	g := m.gauges[name]
	m.mu.RUnlock()
	if g != nil {
		return g
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if g = m.gauges[name]; g == nil {
		m.checkUnregisteredLocked(name, "gauge")
		g = &Gauge{}
		m.gauges[name] = g
	}
	return g
}

// Histogram returns (registering on first use) the named histogram.
// Panics on a name already registered as a counter or gauge.
func (m *Metrics) Histogram(name string) *Histogram {
	m.mu.RLock()
	h := m.hists[name]
	m.mu.RUnlock()
	if h != nil {
		return h
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if h = m.hists[name]; h == nil {
		m.checkUnregisteredLocked(name, "histogram")
		h = &Histogram{}
		m.hists[name] = h
	}
	return h
}

// checkUnregisteredLocked panics with a clear message when name is
// already registered under a different metric type. Caller holds the
// write lock; the map being registered into has already missed.
func (m *Metrics) checkUnregisteredLocked(name, as string) {
	var existing string
	switch {
	case m.counters[name] != nil:
		existing = "counter"
	case m.gauges[name] != nil:
		existing = "gauge"
	case m.hists[name] != nil:
		existing = "histogram"
	default:
		return
	}
	panic(fmt.Sprintf("obs: metric %q already registered as a %s, cannot re-register as a %s", name, existing, as))
}

// family splits a metric name into its base name (the TYPE family) and
// the optional {label} suffix.
func family(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// splitName splits a metric name into its base family and the bare
// label body: `h{route="x"}` → ("h", `route="x"`), `h` → ("h", "").
func splitName(name string) (base, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return name, ""
	}
	return name[:i], strings.TrimSuffix(name[i+1:], "}")
}

// sample writes one exposition sample `base+suffix{labels,extra} v`,
// merging the metric's own labels with sample-level labels (le,
// quantile) so suffixes land before the label set as the text format
// requires.
func sample(b *strings.Builder, base, suffix, labels, extra string, v int64) {
	b.WriteString(base)
	b.WriteString(suffix)
	merged := labels
	if extra != "" {
		if merged != "" {
			merged += ","
		}
		merged += extra
	}
	if merged != "" {
		b.WriteString("{")
		b.WriteString(merged)
		b.WriteString("}")
	}
	fmt.Fprintf(b, " %d\n", v)
}

// bucketUpper is the inclusive upper bound of log₂ bucket i as a
// Prometheus le= value: bucket i holds values of bit length i, i.e.
// [2^(i-1), 2^i - 1].
func bucketUpper(i int) string {
	switch {
	case i == 0:
		return "0"
	case i >= 63:
		return "9223372036854775807"
	}
	return fmt.Sprintf("%d", (int64(1)<<i)-1)
}

// WriteTo renders every metric in Prometheus text exposition format:
// counters and gauges one sample per name, histograms with cumulative
// le-bucket `_bucket` samples (log₂ bucket upper bounds, +Inf = count)
// so they aggregate across instances, plus the p50/p95/p99 quantile
// convenience samples and `_sum`/`_count`.
func (m *Metrics) WriteTo(w io.Writer) (int64, error) {
	m.mu.RLock()
	counters := make(map[string]int64, len(m.counters))
	for name, c := range m.counters {
		counters[name] = c.Value()
	}
	gauges := make(map[string]int64, len(m.gauges))
	for name, g := range m.gauges {
		gauges[name] = g.Value()
	}
	hists := make(map[string]*Histogram, len(m.hists))
	for name, h := range m.hists {
		hists[name] = h
	}
	m.mu.RUnlock()

	var b strings.Builder
	writeScalar := func(vals map[string]int64, typ string) {
		names := make([]string, 0, len(vals))
		for name := range vals {
			names = append(names, name)
		}
		sort.Strings(names)
		lastFamily := ""
		for _, name := range names {
			if f := family(name); f != lastFamily {
				fmt.Fprintf(&b, "# TYPE %s %s\n", f, typ)
				lastFamily = f
			}
			fmt.Fprintf(&b, "%s %d\n", name, vals[name])
		}
	}
	writeScalar(counters, "counter")
	writeScalar(gauges, "gauge")

	histNames := make([]string, 0, len(hists))
	for name := range hists {
		histNames = append(histNames, name)
	}
	sort.Strings(histNames)
	lastFamily := ""
	for _, name := range histNames {
		h := hists[name]
		base, labels := splitName(name)
		if base != lastFamily {
			fmt.Fprintf(&b, "# TYPE %s histogram\n", base)
			lastFamily = base
		}
		// Cumulative le-buckets over the populated log₂ buckets, so
		// scrapes aggregate across instances; the +Inf bucket equals
		// the observation count (clamped monotone against racing
		// observations, which bump the bucket before the count).
		var cum int64
		for i := range h.buckets {
			n := h.buckets[i].Load()
			if n == 0 {
				continue
			}
			cum += n
			sample(&b, base, "_bucket", labels, fmt.Sprintf("le=%q", bucketUpper(i)), cum)
		}
		cnt := h.Count()
		if cum > cnt {
			cnt = cum
		}
		sample(&b, base, "_bucket", labels, `le="+Inf"`, cnt)
		for _, q := range []float64{0.5, 0.95, 0.99} {
			sample(&b, base, "", labels, fmt.Sprintf("quantile=%q", fmt.Sprintf("%g", q)), h.Quantile(q))
		}
		sample(&b, base, "_sum", labels, "", h.Sum())
		sample(&b, base, "_count", labels, "", h.Count())
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// snapshot returns every metric value for expvar exposition.
func (m *Metrics) snapshot() map[string]any {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make(map[string]any, len(m.counters)+len(m.gauges)+len(m.hists))
	for name, c := range m.counters {
		out[name] = c.Value()
	}
	for name, g := range m.gauges {
		out[name] = g.Value()
	}
	for name, h := range m.hists {
		out[name] = map[string]int64{
			"count": h.Count(),
			"sum":   h.Sum(),
			"p50":   h.Quantile(0.5),
			"p95":   h.Quantile(0.95),
			"p99":   h.Quantile(0.99),
		}
	}
	return out
}

// PublishExpvar publishes the registry under the given expvar name
// (e.g. "logres"), visible at /debug/vars. Publishing the same name
// twice is a no-op (expvar forbids re-publication).
func (m *Metrics) PublishExpvar(name string) {
	defer func() { _ = recover() }()
	expvar.Publish(name, expvar.Func(func() any { return m.snapshot() }))
}

// Tracer returns an event adapter that maintains the standard engine
// metrics from the trace stream: round, firing, oid, abort, module, and
// guard-trip counters plus round duration histograms.
// Attach it (usually via Multi, alongside a log sink) to get metrics
// without a second instrumentation path.
func (m *Metrics) Tracer() Tracer { return metricsTracer{m} }

type metricsTracer struct{ m *Metrics }

func (t metricsTracer) Event(ev Event) {
	m := t.m
	switch ev.Kind {
	case KindEvalBegin:
		m.Counter("logres_evals_total").Add(1)
	case KindEvalEnd:
		m.Histogram("logres_eval_duration_ns").Observe(int64(ev.Duration))
		m.Gauge("logres_facts").Set(int64(ev.Total))
	case KindRoundEnd:
		m.Counter("logres_rounds_total").Add(1)
		m.Histogram("logres_round_duration_ns").Observe(int64(ev.Duration))
		m.Gauge("logres_facts").Set(int64(ev.Total))
	case KindRuleFire:
		m.Counter("logres_rule_firings_total").Add(int64(ev.Count))
	case KindOIDInvent:
		m.Counter("logres_oids_invented_total").Add(1)
	case KindGuardCheck:
		m.Counter("logres_guard_trips_total").Add(1)
	case KindAbort:
		axis := ev.Axis
		if axis == "" {
			axis = "error"
		}
		m.Counter(fmt.Sprintf("logres_aborts_total{axis=%q}", axis)).Add(1)
	case KindModuleEnd:
		m.Counter("logres_modules_applied_total").Add(1)
		m.Histogram("logres_module_duration_ns").Observe(int64(ev.Duration))
	case KindModuleCommit:
		m.Counter("logres_module_commits_total").Add(1)
	case KindModuleConflict:
		m.Counter("logres_module_conflicts_total").Add(1)
	case KindModuleRetry:
		m.Counter("logres_module_retries_total").Add(1)
	case KindVecKernel:
		m.Counter(fmt.Sprintf("logres_vec_kernel_invocations_total{kernel=%q}", ev.Pred)).Add(int64(ev.Count))
		m.Counter(fmt.Sprintf("logres_vec_kernel_rows_total{kernel=%q}", ev.Pred)).Add(int64(ev.Total))
	case KindWALAppend:
		m.Counter("logres_wal_appends_total").Add(1)
		m.Counter("logres_wal_bytes_total").Add(int64(ev.Count))
		m.Gauge("logres_wal_size_bytes").Set(int64(ev.Total))
	case KindWALSync:
		m.Counter("logres_wal_fsyncs_total").Add(1)
		m.Histogram("logres_wal_fsync_duration_ns").Observe(int64(ev.Duration))
	case KindWALRecover:
		m.Counter("logres_wal_recoveries_total").Add(1)
		m.Counter("logres_wal_replayed_records_total").Add(int64(ev.Count))
	case KindWALCompact:
		m.Counter("logres_wal_compactions_total").Add(1)
		m.Histogram("logres_wal_compact_duration_ns").Observe(int64(ev.Duration))
	case KindIVMPropagate:
		m.Counter("logres_ivm_propagations_total").Add(1)
		m.Counter("logres_ivm_delta_facts_total").Add(int64(ev.Count))
		m.Histogram("logres_ivm_propagate_duration_ns").Observe(int64(ev.Duration))
		m.Gauge("logres_ivm_facts").Set(int64(ev.Total))
	case KindIVMRebuild:
		m.Counter("logres_ivm_rebuilds_total").Add(1)
		m.Histogram("logres_ivm_rebuild_duration_ns").Observe(int64(ev.Duration))
	case KindSubEmit:
		m.Counter("logres_sub_emits_total").Add(int64(ev.Count))
		m.Counter("logres_sub_slow_drops_total").Add(int64(ev.Total))
	}
}
