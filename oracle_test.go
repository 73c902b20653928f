package logres

import "fmt"

// rowOracle is the reference side of every differential test: the serial
// row engine, the semantics oracle. The defaults select the columnar
// kernels, so the oracle has to be asked for by name; extra options
// (budgets, durability-neutral settings) ride along.
func rowOracle(extra ...Option) []Option {
	return append([]Option{WithVectorize(false), WithWorkers(1), WithShards(1)}, extra...)
}

// engineLeg is one evaluation configuration a byte-identity matrix holds
// against the row oracle.
type engineLeg struct {
	name string
	opts []Option
}

// engineLegs is what every such matrix covers: the defaults, then every
// explicit workers × shards × vectorize combination — the parallel and
// sharded row paths run only when asked for.
func engineLegs() []engineLeg {
	legs := []engineLeg{{name: "defaults"}}
	for _, workers := range []int{1, 4} {
		for _, shards := range []int{1, 4} {
			for _, vec := range []bool{false, true} {
				legs = append(legs, engineLeg{
					name: fmt.Sprintf("workers=%d shards=%d vectorize=%v", workers, shards, vec),
					opts: []Option{WithWorkers(workers), WithShards(shards), WithVectorize(vec)},
				})
			}
		}
	}
	return legs
}
