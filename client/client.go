package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// Client talks to one logres-server. The zero retry configuration
// surfaces the first 409 as an *APIError; WithConflictRetries makes the
// client re-submit conflicted applications with capped exponential
// backoff, mirroring the server-side retry loop for callers that would
// rather wait than handle conflicts themselves.
type Client struct {
	base            string
	hc              *http.Client
	conflictRetries int
	drainingRetries int
	retryBase       time.Duration
	retryMax        time.Duration
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// transports, test doubles).
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// WithConflictRetries makes Exec re-submit a module whose application
// failed with 409 (optimistic commit conflict) up to n more times,
// sleeping a capped exponential backoff between submissions. The
// server already retries internally up to its own budget; this knob is
// the second line for workloads that prefer eventual success over a
// surfaced conflict. The server's retry budget ends in a locked attempt
// that cannot conflict, so a 409 reaches the client only from a request
// or database with retries disabled (max_retries < 0). n <= 0 disables
// client-side retries (the default).
func WithConflictRetries(n int) Option {
	return func(c *Client) { c.conflictRetries = n }
}

// WithDrainingRetries makes every request re-submit after a 503 with
// kind "draining" (the server is shutting down — usually one instance
// behind a balancer rolling over) up to n more times. The wait between
// submissions honours the server's Retry-After hint, clamped into the
// client's backoff schedule so a large hint cannot stall the caller
// beyond the configured cap. n <= 0 disables draining retries (the
// default), surfacing the 503 as an *APIError; IsDraining identifies
// it.
func WithDrainingRetries(n int) Option {
	return func(c *Client) { c.drainingRetries = n }
}

// WithRetryBackoff overrides the client retry backoff schedule (base
// doubling up to max). Zero values keep the defaults (5ms … 250ms).
func WithRetryBackoff(base, max time.Duration) Option {
	return func(c *Client) {
		if base > 0 {
			c.retryBase = base
		}
		if max > 0 {
			c.retryMax = max
		}
	}
}

// New returns a client for the server at baseURL (e.g.
// "http://127.0.0.1:8440").
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		base:      strings.TrimRight(baseURL, "/"),
		hc:        http.DefaultClient,
		retryBase: 5 * time.Millisecond,
		retryMax:  250 * time.Millisecond,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// APIError is a non-2xx data-plane response: the HTTP status plus the
// decoded ErrorResponse body.
type APIError struct {
	Status int
	Resp   ErrorResponse
	// RetryAfter is the server's Retry-After hint (zero when absent) —
	// draining responses carry one.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("logres-server: %d %s: %s", e.Status, e.Resp.Kind, e.Resp.Error)
}

// IsConflict reports whether the error is an optimistic commit
// conflict (409 with kind "conflict").
func (e *APIError) IsConflict() bool {
	return e.Status == http.StatusConflict && e.Resp.Kind == KindConflict
}

// IsDraining reports whether the error is the server's shutdown gate
// (503 with kind "draining").
func (e *APIError) IsDraining() bool {
	return e.Status == http.StatusServiceUnavailable && e.Resp.Kind == KindDraining
}

// Create creates a database named name over schema; opts may be nil.
func (c *Client) Create(ctx context.Context, name, schema string, opts *DBOptions) error {
	var info DBInfo
	return c.doJSON(ctx, http.MethodPut, c.dbURL(name), CreateRequest{Schema: schema, Options: opts}, &info)
}

// Drop removes a database.
func (c *Client) Drop(ctx context.Context, name string) error {
	return c.doJSON(ctx, http.MethodDelete, c.dbURL(name), nil, nil)
}

// List names the registered databases.
func (c *Client) List(ctx context.Context) ([]string, error) {
	var resp ListResponse
	if err := c.doJSON(ctx, http.MethodGet, c.base+"/v1/db", nil, &resp); err != nil {
		return nil, err
	}
	return resp.Databases, nil
}

// Info describes one database.
func (c *Client) Info(ctx context.Context, name string) (*DBInfo, error) {
	var info DBInfo
	if err := c.doJSON(ctx, http.MethodGet, c.dbURL(name), nil, &info); err != nil {
		return nil, err
	}
	return &info, nil
}

// Exec applies a module with the module's declared mode, honouring the
// client's conflict-retry knob.
func (c *Client) Exec(ctx context.Context, name, module string) (*ExecResponse, error) {
	return c.ExecRequest(ctx, name, ExecRequest{Module: module})
}

// ExecRequest applies a module with full request control (mode
// override, per-request retry bound). 409 responses are re-submitted
// per WithConflictRetries.
func (c *Client) ExecRequest(ctx context.Context, name string, req ExecRequest) (*ExecResponse, error) {
	url := c.dbURL(name) + "/exec"
	for attempt := 0; ; attempt++ {
		var resp ExecResponse
		err := c.doJSON(ctx, http.MethodPost, url, req, &resp)
		if err == nil {
			return &resp, nil
		}
		apiErr, ok := err.(*APIError)
		if !ok || !apiErr.IsConflict() || attempt >= c.conflictRetries {
			return nil, err
		}
		if err := sleepCtx(ctx, c.backoff(attempt)); err != nil {
			return nil, err
		}
	}
}

// backoff returns the capped exponential client backoff for an
// attempt; doubling stops at the cap so large retry budgets cannot
// overflow the shift (the same clamp the server's commit loop uses).
func (c *Client) backoff(attempt int) time.Duration {
	d := c.retryBase
	for i := 0; i < attempt; i++ {
		d <<= 1
		if d >= c.retryMax {
			return c.retryMax
		}
	}
	return d
}

// Query evaluates a goal and collects the full streamed answer.
func (c *Client) Query(ctx context.Context, name, goal string) (*Answer, error) {
	ans := &Answer{}
	vars, err := c.QueryStream(ctx, name, QueryRequest{Goal: goal}, func(rows [][]string) error {
		ans.Rows = append(ans.Rows, rows...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	ans.Vars = vars
	return ans, nil
}

// QueryStream evaluates a goal and hands each streamed chunk of rows
// to fn as it arrives; it returns the goal's variable names. fn
// returning an error stops the stream and surfaces that error.
func (c *Client) QueryStream(ctx context.Context, name string, req QueryRequest, fn func(rows [][]string) error) ([]string, error) {
	vars, _, err := c.queryStream(ctx, name, req, fn)
	return vars, err
}

// QueryProfile evaluates a goal with profiling: it collects the full
// streamed answer and returns the per-request Profile the server
// attached to the query trailer.
func (c *Client) QueryProfile(ctx context.Context, name, goal string) (*Answer, *Profile, error) {
	ans := &Answer{}
	vars, trailer, err := c.queryStream(ctx, name, QueryRequest{Goal: goal, Profile: true}, func(rows [][]string) error {
		ans.Rows = append(ans.Rows, rows...)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	ans.Vars = vars
	return ans, trailer.Profile, nil
}

// lineScanner reads a stream's NDJSON lines, each up to 16 MiB. Its
// buffer starts at bufio's 4 KiB and grows only as a line needs, so a
// short reply costs no more than that.
func lineScanner(body io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(body)
	sc.Buffer(nil, 16<<20)
	return sc
}

// queryStream runs the NDJSON query protocol: header line, zero or
// more chunk lines handed to fn, then the trailer (or an error line in
// its place).
func (c *Client) queryStream(ctx context.Context, name string, req QueryRequest, fn func(rows [][]string) error) ([]string, *QueryTrailer, error) {
	body, err := c.doStream(ctx, http.MethodPost, c.dbURL(name)+"/query", req)
	if err != nil {
		return nil, nil, err
	}
	defer body.Close()
	sc := lineScanner(body)

	if !sc.Scan() {
		return nil, nil, fmt.Errorf("logres-server: empty query stream: %w", sc.Err())
	}
	var header QueryHeader
	if err := json.Unmarshal(sc.Bytes(), &header); err != nil {
		return nil, nil, &APIError{Resp: ErrorResponse{Error: "malformed query header: " + err.Error(), Kind: KindTransport}}
	}
	var done *QueryTrailer
	for sc.Scan() {
		line := sc.Bytes()
		var trailer QueryTrailer
		if err := json.Unmarshal(line, &trailer); err == nil && trailer.Done {
			done = &trailer
			break
		}
		var streamErr struct {
			Error *ErrorResponse `json:"error"`
		}
		if err := json.Unmarshal(line, &streamErr); err == nil && streamErr.Error != nil {
			return header.Vars, nil, &APIError{Resp: *streamErr.Error}
		}
		var chunk QueryChunk
		if err := json.Unmarshal(line, &chunk); err != nil {
			return header.Vars, nil, &APIError{Resp: ErrorResponse{Error: "malformed query chunk: " + err.Error(), Kind: KindTransport}}
		}
		if err := fn(chunk.Rows); err != nil {
			return header.Vars, nil, err
		}
	}
	if err := sc.Err(); err != nil {
		return header.Vars, nil, err
	}
	if done == nil {
		return header.Vars, nil, &APIError{Resp: ErrorResponse{Error: "query stream truncated before trailer", Kind: KindTransport}}
	}
	return header.Vars, done, nil
}

// Instance streams the derived instance and collects its facts.
func (c *Client) Instance(ctx context.Context, name string) ([]InstanceFact, error) {
	body, err := c.doStream(ctx, http.MethodGet, c.dbURL(name)+"/instance", nil)
	if err != nil {
		return nil, err
	}
	defer body.Close()
	sc := lineScanner(body)
	var facts []InstanceFact
	for sc.Scan() {
		var trailer QueryTrailer
		if err := json.Unmarshal(sc.Bytes(), &trailer); err == nil && trailer.Done {
			return facts, nil
		}
		var f InstanceFact
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			return facts, &APIError{Resp: ErrorResponse{Error: "malformed instance line: " + err.Error(), Kind: KindTransport}}
		}
		facts = append(facts, f)
	}
	if err := sc.Err(); err != nil {
		return facts, err
	}
	return facts, &APIError{Resp: ErrorResponse{Error: "instance stream truncated before trailer", Kind: KindTransport}}
}

// Register stores a named module in the database's library.
func (c *Client) Register(ctx context.Context, name, module string) error {
	return c.doJSON(ctx, http.MethodPost, c.dbURL(name)+"/register", RegisterRequest{Module: module}, nil)
}

// Subscribe opens a live view subscription and blocks, handing every
// per-epoch DiffEvent to fn as it arrives; it returns the
// SubscribeHeader naming the commit epoch the subscription is pinned
// at. The call ends when the server tears the subscription down (a
// "slow_consumer" or "draining" *APIError), when fn returns an error
// (surfaced verbatim), or when ctx is canceled (the usual way to
// unsubscribe client-side — the stream's error is suppressed in favor
// of ctx.Err()). Requires a database created with
// DBOptions.Incremental.
func (c *Client) Subscribe(ctx context.Context, name string, req SubscribeRequest, fn func(DiffEvent) error) (*SubscribeHeader, error) {
	body, err := c.doStream(ctx, http.MethodPost, c.dbURL(name)+"/subscribe", req)
	if err != nil {
		return nil, err
	}
	defer body.Close()
	sc := lineScanner(body)

	if !sc.Scan() {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, fmt.Errorf("logres-server: empty subscription stream: %w", sc.Err())
	}
	var streamErr struct {
		Error *ErrorResponse `json:"error"`
	}
	if err := json.Unmarshal(sc.Bytes(), &streamErr); err == nil && streamErr.Error != nil {
		return nil, &APIError{Resp: *streamErr.Error}
	}
	var header SubscribeHeader
	if err := json.Unmarshal(sc.Bytes(), &header); err != nil {
		return nil, &APIError{Resp: ErrorResponse{Error: "malformed subscribe header: " + err.Error(), Kind: KindTransport}}
	}
	for sc.Scan() {
		line := sc.Bytes()
		streamErr.Error = nil
		if err := json.Unmarshal(line, &streamErr); err == nil && streamErr.Error != nil {
			return &header, &APIError{Resp: *streamErr.Error}
		}
		var ev DiffEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			return &header, &APIError{Resp: ErrorResponse{Error: "malformed diff event: " + err.Error(), Kind: KindTransport}}
		}
		if err := fn(ev); err != nil {
			return &header, err
		}
	}
	// A canceled context tears the connection down mid-read; report the
	// cancellation, not the transport debris it caused.
	if ctx.Err() != nil {
		return &header, ctx.Err()
	}
	if err := sc.Err(); err != nil {
		return &header, err
	}
	return &header, nil
}

// ---------------------------------------------------------------------------
// Transport.
// ---------------------------------------------------------------------------

func (c *Client) dbURL(name string) string {
	return c.base + "/v1/db/" + url.PathEscape(name)
}

// doJSON performs one request with an optional JSON body and decodes a
// JSON response into out (nil discards the body). Non-2xx responses
// decode into an *APIError; 503 draining responses are re-submitted
// per WithDrainingRetries.
func (c *Client) doJSON(ctx context.Context, method, url string, in, out any) error {
	for attempt := 0; ; attempt++ {
		resp, err := c.do(ctx, method, url, in)
		if err != nil {
			return err
		}
		if err := responseError(resp); err != nil {
			resp.Body.Close()
			if wait, retry := c.drainingWait(err, attempt); retry {
				if err := sleepCtx(ctx, wait); err != nil {
					return err
				}
				continue
			}
			return err
		}
		if out == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			return nil
		}
		err = json.NewDecoder(resp.Body).Decode(out)
		resp.Body.Close()
		return err
	}
}

// doStream performs one request and returns the raw body for NDJSON
// consumption; non-2xx responses are decoded and closed here, with
// draining responses re-submitted per WithDrainingRetries (the retry
// happens before any stream byte reached the caller, so it is safe for
// the streaming endpoints too).
func (c *Client) doStream(ctx context.Context, method, url string, in any) (io.ReadCloser, error) {
	for attempt := 0; ; attempt++ {
		resp, err := c.do(ctx, method, url, in)
		if err != nil {
			return nil, err
		}
		if err := responseError(resp); err != nil {
			resp.Body.Close()
			if wait, retry := c.drainingWait(err, attempt); retry {
				if err := sleepCtx(ctx, wait); err != nil {
					return nil, err
				}
				continue
			}
			return nil, err
		}
		return resp.Body, nil
	}
}

// drainingWait decides whether a failed request is re-submitted because
// the server was draining, and how long to wait first: the server's
// Retry-After hint when it beats the exponential schedule, clamped at
// the backoff cap so a large hint cannot stall the caller.
func (c *Client) drainingWait(err error, attempt int) (time.Duration, bool) {
	apiErr, ok := err.(*APIError)
	if !ok || !apiErr.IsDraining() || attempt >= c.drainingRetries {
		return 0, false
	}
	wait := c.backoff(attempt)
	if apiErr.RetryAfter > wait {
		wait = apiErr.RetryAfter
	}
	if wait > c.retryMax {
		wait = c.retryMax
	}
	return wait, true
}

// sleepCtx waits for d or the context, whichever ends first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}

func (c *Client) do(ctx context.Context, method, url string, in any) (*http.Response, error) {
	var body io.Reader
	if in != nil {
		buf, err := json.Marshal(in)
		if err != nil {
			return nil, err
		}
		body = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return nil, err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	// Every request carries a fresh trace identity: the server extracts
	// these into its request span, so slow-query logs, /debug/requests,
	// trace events, and profiles are attributable to this exact call
	// (client-side retries get distinct ids, tying each submission to
	// its own server-side record).
	traceID, spanID := newTraceIDs()
	req.Header.Set("traceparent", traceparent(traceID, spanID))
	req.Header.Set("X-Request-ID", spanID)
	return c.hc.Do(req)
}

func responseError(resp *http.Response) error {
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		return nil
	}
	apiErr := &APIError{Status: resp.StatusCode}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		// Only the delay-seconds form is produced by logres-server; the
		// HTTP-date form is ignored.
		if secs, err := strconv.Atoi(ra); err == nil && secs >= 0 {
			apiErr.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err := json.Unmarshal(data, &apiErr.Resp); err != nil || apiErr.Resp.Error == "" {
		apiErr.Resp = ErrorResponse{Error: strings.TrimSpace(string(data)), Kind: KindTransport}
		if apiErr.Resp.Error == "" {
			apiErr.Resp.Error = resp.Status
		}
	}
	return apiErr
}
