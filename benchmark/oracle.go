package main

import (
	"bytes"
	"fmt"
	"sort"
	"strings"

	"logres"
	"logres/internal/engine"
	"logres/internal/parser"
	"logres/internal/storage"
)

// closureOracle fills in the answer every closure_batch query must
// give: a derivation on the row engine with Workers = Shards = 1, with
// the engine called directly rather than through the Database under
// test.
func closureOracle(p *plan) error {
	ref, err := logres.Open(p.schema, logres.WithWorkers(1), logres.WithShards(1))
	if err != nil {
		return err
	}
	if err := load(&embedded{d: ref}, p, nil); err != nil {
		return err
	}
	b, err := saved(ref)
	if err != nil {
		return err
	}
	st, err := storage.LoadState(bytes.NewReader(b))
	if err != nil {
		return err
	}
	opts := engine.DefaultOptions()
	opts.Workers, opts.Shards = 1, 1
	prog, err := engine.Compile(st.S, st.R, opts)
	if err != nil {
		return err
	}
	counter := st.Counter
	f, err := prog.Run(st.E, &counter)
	if err != nil {
		return err
	}
	for i := range p.clients[0] {
		o := &p.clients[0][i]
		goal, err := parser.ParseGoal(o.src)
		if err != nil {
			return err
		}
		a, err := prog.Query(f, goal)
		if err != nil {
			return fmt.Errorf("oracle: %s: %w", o.src, err)
		}
		o.want = o.want[:0]
		for _, row := range renderAnswer(a).rows {
			o.want = append(o.want, strings.Join(row, ","))
		}
		sort.Strings(o.want)
	}
	return nil
}
