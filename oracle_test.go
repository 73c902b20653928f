package logres

// rowOracle is the reference side of every differential test: the row
// engine, the semantics oracle. The defaults select the columnar
// kernels, so the oracle has to be asked for by name; extra options
// (budgets, durability-neutral settings) ride along.
func rowOracle(extra ...Option) []Option {
	return append([]Option{WithVectorize(false)}, extra...)
}

// engineLeg is one evaluation configuration a byte-identity matrix holds
// against the row oracle.
type engineLeg struct {
	name string
	opts []Option
}

// engineLegs is what every such matrix covers: the defaults and the row
// oracle itself. The oracle leg also passes the one accepted value of
// the deprecated WithWorkers/WithShards options, as benchmark/oracle.go
// does, so that value is held to the oracle's bytes too.
func engineLegs() []engineLeg {
	return []engineLeg{
		{name: "defaults"},
		{name: "workers=1 shards=1 vectorize=false", opts: rowOracle(WithWorkers(1), WithShards(1))},
	}
}
