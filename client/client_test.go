package client

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestExecRetriesOn409 counts submissions against a fake server that
// conflicts twice before accepting.
func TestExecRetriesOn409(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.WriteHeader(http.StatusConflict)
			_ = json.NewEncoder(w).Encode(ErrorResponse{Error: "lost", Kind: KindConflict})
			return
		}
		_ = json.NewEncoder(w).Encode(ExecResponse{Mode: "RIDV", Epoch: 3})
	}))
	defer ts.Close()

	c := New(ts.URL, WithConflictRetries(2), WithRetryBackoff(time.Microsecond, time.Millisecond))
	res, err := c.Exec(context.Background(), "db", "mode ridv.\nend.\n")
	if err != nil {
		t.Fatal(err)
	}
	if res.Epoch != 3 || calls.Load() != 3 {
		t.Fatalf("res = %+v after %d calls", res, calls.Load())
	}

	// With retries exhausted the conflict surfaces.
	calls.Store(0)
	c = New(ts.URL, WithConflictRetries(1), WithRetryBackoff(time.Microsecond, time.Millisecond))
	_, err = c.Exec(context.Background(), "db", "mode ridv.\nend.\n")
	var apiErr *APIError
	if !errors.As(err, &apiErr) || !apiErr.IsConflict() {
		t.Fatalf("err = %v, want surfaced conflict", err)
	}
	if calls.Load() != 2 {
		t.Fatalf("calls = %d, want 2", calls.Load())
	}
}

// TestClientBackoffClamped mirrors the server-side regression: huge
// attempt counts must not overflow the shift.
func TestClientBackoffClamped(t *testing.T) {
	c := New("http://x", WithRetryBackoff(5*time.Millisecond, 250*time.Millisecond))
	prev := time.Duration(0)
	for attempt := 0; attempt <= 200; attempt++ {
		d := c.backoff(attempt)
		if d <= 0 || d > 250*time.Millisecond {
			t.Fatalf("backoff(%d) = %v out of range", attempt, d)
		}
		if d < prev {
			t.Fatalf("backoff(%d) = %v < backoff(%d) = %v", attempt, d, attempt-1, prev)
		}
		prev = d
	}
	if c.backoff(100) != 250*time.Millisecond {
		t.Fatalf("backoff(100) = %v, want cap", c.backoff(100))
	}
}

func streamServer(body string) *httptest.Server {
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		_, _ = w.Write([]byte(body))
	}))
}

// TestQueryStreamTruncated: a stream that dies before the trailer is a
// transport error, not silent partial data.
func TestQueryStreamTruncated(t *testing.T) {
	ts := streamServer(`{"vars":["X"]}
{"rows":[["1"]]}
`)
	defer ts.Close()
	c := New(ts.URL)
	var rows int
	_, err := c.QueryStream(context.Background(), "db", QueryRequest{Goal: "?- p(x: X)."}, func(r [][]string) error {
		rows += len(r)
		return nil
	})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Resp.Kind != KindTransport {
		t.Fatalf("err = %v, want transport error", err)
	}
	if rows != 1 {
		t.Fatalf("rows before truncation = %d, want 1", rows)
	}
}

// TestQueryStreamErrorLine: a mid-stream error object surfaces as the
// typed APIError.
func TestQueryStreamErrorLine(t *testing.T) {
	ts := streamServer(`{"vars":["X"]}
{"rows":[["1"]]}
{"error":{"error":"budget: facts","kind":"budget","axis":"facts"}}
`)
	defer ts.Close()
	c := New(ts.URL)
	_, err := c.QueryStream(context.Background(), "db", QueryRequest{Goal: "?- p(x: X)."}, func([][]string) error {
		return nil
	})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Resp.Kind != KindBudget || apiErr.Resp.Axis != "facts" {
		t.Fatalf("err = %v, want budget error", err)
	}
}

// TestQueryStreamCallbackError: fn's error stops the stream and
// surfaces unchanged.
func TestQueryStreamCallbackError(t *testing.T) {
	ts := streamServer(`{"vars":["X"]}
{"rows":[["1"]]}
{"done":true,"total":1}
`)
	defer ts.Close()
	c := New(ts.URL)
	sentinel := errors.New("stop")
	_, err := c.QueryStream(context.Background(), "db", QueryRequest{Goal: "?- p(x: X)."}, func([][]string) error {
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
}

// TestStreamLineAboveScanStart: a stream line longer than 64 KiB
// decodes through Query and Instance, however small the scanner's
// buffer starts.
func TestStreamLineAboveScanStart(t *testing.T) {
	big := strings.Repeat("x", 100<<10)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		enc := json.NewEncoder(w)
		if strings.HasSuffix(r.URL.Path, "/instance") {
			_ = enc.Encode(InstanceFact{Pred: "p", Fact: big})
		} else {
			_ = enc.Encode(QueryHeader{Vars: []string{"X"}})
			_ = enc.Encode(QueryChunk{Rows: [][]string{{big}, {"y"}}})
		}
		_ = enc.Encode(QueryTrailer{Done: true, Total: 2})
	}))
	defer ts.Close()
	c := New(ts.URL)
	ans, err := c.Query(context.Background(), "db", "?- p(x: X).")
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Rows) != 2 || ans.Rows[0][0] != big || ans.Rows[1][0] != "y" {
		t.Fatalf("query rows = %d, first %d bytes", len(ans.Rows), len(ans.Rows[0][0]))
	}
	facts, err := c.Instance(context.Background(), "db")
	if err != nil {
		t.Fatal(err)
	}
	if len(facts) != 1 || facts[0].Fact != big {
		t.Fatalf("instance facts = %d", len(facts))
	}
}

// TestResponseErrorNonJSON: a non-JSON error body (a proxy, a panic
// page) still yields a usable APIError.
func TestResponseErrorNonJSON(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "bad gateway", http.StatusBadGateway)
	}))
	defer ts.Close()
	c := New(ts.URL)
	_, err := c.List(context.Background())
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadGateway || apiErr.Resp.Kind != KindTransport {
		t.Fatalf("err = %v", err)
	}
	if apiErr.Resp.Error != "bad gateway" {
		t.Fatalf("message = %q", apiErr.Resp.Error)
	}
}

// TestDrainingRetryKnob counts submissions against a fake server that
// is draining twice before accepting, and checks that every verb —
// JSON and streaming — honours the knob.
func TestDrainingRetryKnob(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusServiceUnavailable)
			_ = json.NewEncoder(w).Encode(ErrorResponse{Error: "server is shutting down", Kind: KindDraining})
			return
		}
		_ = json.NewEncoder(w).Encode(ExecResponse{Mode: "RIDV", Epoch: 3})
	}))
	defer ts.Close()

	c := New(ts.URL, WithDrainingRetries(3), WithRetryBackoff(time.Microsecond, time.Millisecond))
	res, err := c.Exec(context.Background(), "db", "mode ridv.\nend.\n")
	if err != nil {
		t.Fatal(err)
	}
	if res.Epoch != 3 || calls.Load() != 3 {
		t.Fatalf("res = %+v after %d calls", res, calls.Load())
	}

	// Without the knob the 503 surfaces typed, with the Retry-After
	// hint parsed off the header.
	calls.Store(0)
	c = New(ts.URL)
	_, err = c.Exec(context.Background(), "db", "mode ridv.\nend.\n")
	var apiErr *APIError
	if !errors.As(err, &apiErr) || !apiErr.IsDraining() {
		t.Fatalf("err = %v, want surfaced draining", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("calls = %d, want 1", calls.Load())
	}

	// Retries exhausted: bounded, then surfaced.
	calls.Store(0)
	c = New(ts.URL, WithDrainingRetries(1), WithRetryBackoff(time.Microsecond, time.Millisecond))
	_, err = c.Exec(context.Background(), "db", "mode ridv.\nend.\n")
	if !errors.As(err, &apiErr) || !apiErr.IsDraining() || calls.Load() != 2 {
		t.Fatalf("err = %v after %d calls, want draining after 2", err, calls.Load())
	}
}

// TestDrainingRetryAfterParsed checks the header forms: seconds parse,
// garbage and negatives are ignored.
func TestDrainingRetryAfterParsed(t *testing.T) {
	for _, tc := range []struct {
		header string
		want   time.Duration
	}{
		{"2", 2 * time.Second},
		{"0", 0},
		{"-3", 0},
		{"soon", 0},
		{"", 0},
	} {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if tc.header != "" {
				w.Header().Set("Retry-After", tc.header)
			}
			w.WriteHeader(http.StatusServiceUnavailable)
			_ = json.NewEncoder(w).Encode(ErrorResponse{Error: "draining", Kind: KindDraining})
		}))
		_, err := New(ts.URL).Info(context.Background(), "db")
		ts.Close()
		var apiErr *APIError
		if !errors.As(err, &apiErr) {
			t.Fatalf("header %q: err = %v", tc.header, err)
		}
		if apiErr.RetryAfter != tc.want {
			t.Fatalf("header %q: RetryAfter = %v, want %v", tc.header, apiErr.RetryAfter, tc.want)
		}
	}
}

// TestDrainingWaitClamped: the server hint never stalls the caller
// past the backoff cap, and beats the schedule when smaller.
func TestDrainingWaitClamped(t *testing.T) {
	c := New("http://x", WithDrainingRetries(5),
		WithRetryBackoff(time.Millisecond, 8*time.Millisecond))
	hint := &APIError{Status: http.StatusServiceUnavailable,
		Resp: ErrorResponse{Kind: KindDraining}, RetryAfter: time.Hour}
	if wait, ok := c.drainingWait(hint, 0); !ok || wait != 8*time.Millisecond {
		t.Fatalf("huge hint: wait = %v, %v", wait, ok)
	}
	hint.RetryAfter = 0
	if wait, ok := c.drainingWait(hint, 1); !ok || wait != 2*time.Millisecond {
		t.Fatalf("no hint: wait = %v, %v", wait, ok)
	}
	if _, ok := c.drainingWait(hint, 5); ok {
		t.Fatal("retry budget not bounded")
	}
	conflict := &APIError{Status: http.StatusConflict, Resp: ErrorResponse{Kind: KindConflict}}
	if _, ok := c.drainingWait(conflict, 0); ok {
		t.Fatal("non-draining error retried")
	}
}
