package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"time"

	"logres"
	"logres/client"
	"logres/internal/obs"
	"logres/internal/server"
)

// reply is what an operation returned, in the one form all entry
// points can be brought to: rendered goal bindings, or a count.
type reply struct {
	vars  []string
	rows  [][]string
	count int
}

// callProfile is the part of a per-call Profile the traced run reads.
type callProfile struct {
	rounds, firings, retries, conflicts int
	commitPath                          string
	walAppends, walSyncs                int
	walBytes, walSyncWaitNS             int64
	deltaArea                           int
	vecStrata, vecKernelRows            int
}

// profileSink receives one call's Profile in whichever form the entry
// point hands out: obs.Profile from the embedded API, the wire form
// over HTTP. They share their JSON, which reduce uses after the call
// has been timed.
type profileSink struct {
	embedded obs.Profile
	wire     *client.Profile
}

func (s *profileSink) reduce() (callProfile, error) {
	p := s.wire
	if p == nil {
		raw, err := json.Marshal(&s.embedded)
		if err != nil {
			return callProfile{}, err
		}
		p = &client.Profile{}
		if err := json.Unmarshal(raw, p); err != nil {
			return callProfile{}, err
		}
	}
	c := callProfile{rounds: p.Rounds, firings: p.Firings, retries: p.Retries, conflicts: len(p.Conflicts),
		commitPath: p.CommitPath, walAppends: p.WALAppends, walSyncs: p.WALSyncs,
		walBytes: p.WALBytes, walSyncWaitNS: p.WALSyncWaitNS}
	for _, st := range p.Strata {
		for _, d := range st.Delta {
			c.deltaArea += d
		}
		if st.Vectorized {
			c.vecStrata++
		}
		for _, k := range st.Kernels {
			c.vecKernelRows += k.Rows
		}
	}
	return c, nil
}

// target is a database under test behind one of its entry points. do
// runs one operation for a closed-loop client; a non-nil prof asks for
// the call's Profile (the traced run).
type target interface {
	register(src string) error
	exec(src string) error
	do(g int, o *op, prof *profileSink) (reply, error)
	db() *logres.Database
	close() error
}

func renderAnswer(a *logres.Answer) reply {
	if a == nil {
		return reply{}
	}
	rows := make([][]string, len(a.Rows))
	for i, row := range a.Rows {
		rows[i] = make([]string, len(row))
		for j, v := range row {
			rows[i][j] = v.String()
		}
	}
	return reply{vars: a.Vars, rows: rows}
}

// embedded drives a *logres.Database in process. Writes go through
// ExecConcurrent when concurrent is set, else through the serial Exec.
type embedded struct {
	d          *logres.Database
	concurrent bool
}

func (t *embedded) register(src string) error { return t.d.Register(src) }
func (t *embedded) db() *logres.Database      { return t.d }
func (t *embedded) close() error              { return t.d.Close() }

func (t *embedded) exec(src string) error {
	_, err := t.d.Exec(src)
	return err
}

func (t *embedded) do(_ int, o *op, prof *profileSink) (reply, error) {
	var opts []logres.CallOption
	if prof != nil {
		opts = append(opts, logres.WithCallProfile(&prof.embedded))
	}
	switch o.via {
	case viaCount:
		n, err := t.d.Count(o.src)
		return reply{count: n}, err
	case viaQuery:
		a, err := t.d.Query(o.src, opts...)
		return renderAnswer(a), err
	}
	var res *logres.Result
	var err error
	if t.concurrent {
		res, err = t.d.ExecConcurrent(o.src, opts...)
	} else {
		res, err = t.d.Exec(o.src, opts...)
	}
	if err != nil {
		return reply{}, err
	}
	return renderAnswer(res.Answer), nil
}

// overHTTP drives a database registered in an in-process
// internal/server behind a loopback listener, one client connection
// per closed-loop client.
type overHTTP struct {
	srv     *server.Server
	hs      *http.Server
	d       *logres.Database
	name    string
	clients []*client.Client
}

func openHTTP(schema string, clients int) (*overHTTP, error) {
	srv := server.New(server.Options{})
	// The programmatic form of PUT /v1/db/{name}, with the option the
	// route itself passes, so the benchmark holds the handle it needs
	// for Save.
	d, err := srv.Create("bench", schema, logres.WithMetrics(srv.Metrics()))
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	t := &overHTTP{srv: srv, hs: &http.Server{Handler: srv.Handler()}, d: d, name: "bench"}
	go func() { _ = t.hs.Serve(ln) }() // returns when close shuts the server down
	for i := 0; i < clients; i++ {
		hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
		// Both clients write one predicate, so a commit can lose its
		// validation more often than the server's own retry budget
		// absorbs; the client then submits the module again, as an
		// application that must not fail would.
		t.clients = append(t.clients, client.New("http://"+ln.Addr().String(),
			client.WithHTTPClient(hc), client.WithConflictRetries(8)))
	}
	return t, nil
}

func (t *overHTTP) db() *logres.Database { return t.d }

func (t *overHTTP) register(src string) error {
	return t.clients[0].Register(context.Background(), t.name, src)
}

func (t *overHTTP) exec(src string) error {
	_, err := t.clients[0].Exec(context.Background(), t.name, src)
	return err
}

func (t *overHTTP) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := t.srv.Shutdown(ctx); err != nil {
		return err
	}
	return t.hs.Shutdown(ctx)
}

func (t *overHTTP) do(g int, o *op, prof *profileSink) (reply, error) {
	ctx := context.Background()
	c := t.clients[g]
	switch o.via {
	case viaCount:
		return reply{}, fmt.Errorf("count has no route")
	case viaQuery:
		if prof == nil {
			a, err := c.Query(ctx, t.name, o.src)
			if err != nil {
				return reply{}, err
			}
			return reply{vars: a.Vars, rows: a.Rows}, nil
		}
		a, p, err := c.QueryProfile(ctx, t.name, o.src)
		if err != nil {
			return reply{}, err
		}
		prof.wire = p
		return reply{vars: a.Vars, rows: a.Rows}, nil
	}
	resp, err := c.ExecRequest(ctx, t.name, client.ExecRequest{Module: o.src, Profile: prof != nil})
	if err != nil {
		return reply{}, err
	}
	if prof != nil {
		prof.wire = resp.Profile
	}
	if resp.Answer == nil {
		return reply{}, nil
	}
	return reply{vars: resp.Answer.Vars, rows: resp.Answer.Rows}, nil
}
