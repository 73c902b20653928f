package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// jsonEvent is the wire form of an Event. Field order is fixed by the
// struct, omitempty keeps lines compact, and the canonical mode leaves
// every wall-clock field zero so two traces of the same program compare
// byte for byte.
type jsonEvent struct {
	Time     string `json:"time,omitempty"`
	Kind     Kind   `json:"kind"`
	Stratum  int    `json:"stratum,omitempty"`
	Round    int    `json:"round,omitempty"`
	Rule     int    `json:"rule,omitempty"`
	Pred     string `json:"pred,omitempty"`
	OID      int64  `json:"oid,omitempty"`
	Count    int    `json:"count,omitempty"`
	Total    int    `json:"total,omitempty"`
	Axis     string `json:"axis,omitempty"`
	Limit    int64  `json:"limit,omitempty"`
	Duration int64  `json:"duration_ns,omitempty"`
	Detail   string `json:"detail,omitempty"`
	Reason   string `json:"reason,omitempty"`
	Req      string `json:"req,omitempty"`
}

// JSONL writes one JSON object per event — the machine-readable event
// log. Safe for concurrent use.
type JSONL struct {
	mu        sync.Mutex
	w         io.Writer
	canonical bool
	err       error
}

// NewJSONL returns a JSONL sink that stamps arrival timestamps.
func NewJSONL(w io.Writer) *JSONL { return &JSONL{w: w} }

// NewCanonicalJSONL returns a JSONL sink in canonical (deterministic)
// mode: timestamps and durations are stripped and nondeterministic event
// kinds are skipped, so the output for a fixed program is byte-identical
// from run to run.
func NewCanonicalJSONL(w io.Writer) *JSONL { return &JSONL{w: w, canonical: true} }

// Event implements Tracer.
func (t *JSONL) Event(ev Event) {
	if t.canonical && !ev.Kind.Deterministic() {
		return
	}
	je := jsonEvent{
		Kind:    ev.Kind,
		Stratum: ev.Stratum,
		Round:   ev.Round,
		Rule:    ev.Rule,
		Pred:    ev.Pred,
		OID:     ev.OID,
		Count:   ev.Count,
		Total:   ev.Total,
		Axis:    ev.Axis,
		Limit:   ev.Limit,
		Detail:  ev.Detail,
		Reason:  ev.Reason,
	}
	if !t.canonical {
		when := ev.Time
		if when.IsZero() {
			when = time.Now()
		}
		je.Time = when.UTC().Format(time.RFC3339Nano)
		je.Duration = int64(ev.Duration)
		je.Req = ev.Req
	}
	line, err := json.Marshal(je)
	if err != nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	if _, err := t.w.Write(append(line, '\n')); err != nil {
		t.err = err
	}
}

// Err returns the first write error the sink swallowed (tracing must
// never fail an evaluation).
func (t *JSONL) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// Text writes human-readable one-line renderings of each event — the
// debugging trace surface. Safe for concurrent use.
type Text struct {
	mu sync.Mutex
	w  io.Writer
}

// NewText returns a human-readable trace sink.
func NewText(w io.Writer) *Text { return &Text{w: w} }

// Event implements Tracer.
func (t *Text) Event(ev Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	fmt.Fprintln(t.w, FormatEvent(ev))
}

// FormatEvent renders one event as the text sink does.
func FormatEvent(ev Event) string {
	switch ev.Kind {
	case KindEvalBegin:
		return fmt.Sprintf("eval: begin strata=%d facts=%d", ev.Count, ev.Total)
	case KindEvalEnd:
		return fmt.Sprintf("eval: end rounds=%d facts=%d in %s", ev.Count, ev.Total, ev.Duration)
	case KindStratumBegin:
		if ev.Reason != "" {
			return fmt.Sprintf("stratum %d: begin rules=%d mode=%s row=(%s)", ev.Stratum, ev.Count, ev.Detail, ev.Reason)
		}
		return fmt.Sprintf("stratum %d: begin rules=%d mode=%s", ev.Stratum, ev.Count, ev.Detail)
	case KindStratumEnd:
		return fmt.Sprintf("stratum %d: end facts=%d", ev.Stratum, ev.Total)
	case KindRoundBegin:
		return fmt.Sprintf("stratum %d round %d: begin", ev.Stratum, ev.Round)
	case KindRoundEnd:
		return fmt.Sprintf("stratum %d round %d: delta=%d facts=%d (%s)",
			ev.Stratum, ev.Round, ev.Count, ev.Total, ev.Duration)
	case KindRuleFire:
		return fmt.Sprintf("stratum %d round %d: rule #%d fired %d times",
			ev.Stratum, ev.Round, ev.Rule, ev.Count)
	case KindOIDInvent:
		return fmt.Sprintf("stratum %d round %d: rule #%d invented oid %d (%s)",
			ev.Stratum, ev.Round, ev.Rule, ev.OID, ev.Pred)
	case KindBudget:
		return fmt.Sprintf("stratum %d round %d: budget %s %d/%d",
			ev.Stratum, ev.Round, ev.Axis, ev.Count, ev.Limit)
	case KindGuardCheck:
		return fmt.Sprintf("stratum %d round %d: in-round guard trip (rule #%d): %s",
			ev.Stratum, ev.Round, ev.Rule, ev.Detail)
	case KindAbort:
		return fmt.Sprintf("abort: %s at stratum %d round %d: %s", ev.Axis, ev.Stratum, ev.Round, ev.Detail)
	case KindModuleBegin:
		return fmt.Sprintf("module: begin mode=%s", ev.Detail)
	case KindModuleEnd:
		if ev.Reason != "" {
			return fmt.Sprintf("module: end mode=%s audit=%s (%s)", ev.Detail, ev.Reason, ev.Duration)
		}
		return fmt.Sprintf("module: end mode=%s (%s)", ev.Detail, ev.Duration)
	case KindModuleCommit:
		return fmt.Sprintf("module %s: committed attempt %d delta=%d (%s)", ev.Pred, ev.Round, ev.Count, ev.Detail)
	case KindModuleConflict:
		return fmt.Sprintf("module %s: conflict attempt %d: %s", ev.Pred, ev.Round, ev.Detail)
	case KindModuleRetry:
		return fmt.Sprintf("module %s: retry attempt %d after %s", ev.Pred, ev.Round, ev.Duration)
	}
	return fmt.Sprintf("%s stratum=%d round=%d count=%d detail=%s", ev.Kind, ev.Stratum, ev.Round, ev.Count, ev.Detail)
}

// FlightRecorder keeps the last N events in a ring buffer and, when an
// abort event arrives, dumps them to the configured writer — the
// post-mortem surface for a stalled or aborted query whose full trace
// nobody was recording. Safe for concurrent use.
type FlightRecorder struct {
	mu      sync.Mutex
	buf     []Event
	next    int
	full    bool
	dumpTo  io.Writer
	dumped  int // number of abort-triggered dumps
	stamped bool
}

// NewFlightRecorder returns a recorder holding the last n events
// (n <= 0 selects 256). Call SetDumpOnAbort to get automatic dumps.
func NewFlightRecorder(n int) *FlightRecorder {
	if n <= 0 {
		n = 256
	}
	return &FlightRecorder{buf: make([]Event, n)}
}

// SetDumpOnAbort makes the recorder write its buffer to w whenever an
// abort event (KindAbort) arrives.
func (r *FlightRecorder) SetDumpOnAbort(w io.Writer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.dumpTo = w
}

// Event implements Tracer.
func (r *FlightRecorder) Event(ev Event) {
	if ev.Time.IsZero() {
		ev.Time = time.Now()
	}
	r.mu.Lock()
	r.buf[r.next] = ev
	r.next++
	if r.next == len(r.buf) {
		r.next, r.full = 0, true
	}
	w := r.dumpTo
	r.mu.Unlock()
	if ev.Kind == KindAbort && w != nil {
		r.mu.Lock()
		r.dumped++
		r.mu.Unlock()
		r.WriteTo(w)
	}
}

// Dumps reports how many abort-triggered dumps have been written.
func (r *FlightRecorder) Dumps() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dumped
}

// Snapshot returns the recorded events, oldest first.
func (r *FlightRecorder) Snapshot() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.full {
		return append([]Event(nil), r.buf[:r.next]...)
	}
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// WriteTo renders the recorded events (oldest first) as a readable
// flight-recorder dump.
func (r *FlightRecorder) WriteTo(w io.Writer) (int64, error) {
	events := r.Snapshot()
	var written int64
	n, err := fmt.Fprintf(w, "--- flight recorder: last %d events ---\n", len(events))
	written += int64(n)
	if err != nil {
		return written, err
	}
	for _, ev := range events {
		n, err := fmt.Fprintf(w, "%s %s\n", ev.Time.UTC().Format("15:04:05.000000"), FormatEvent(ev))
		written += int64(n)
		if err != nil {
			return written, err
		}
	}
	n, err = fmt.Fprintln(w, "--- end flight recorder ---")
	written += int64(n)
	return written, err
}
