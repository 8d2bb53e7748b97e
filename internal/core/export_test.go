package core

// Test-only access to the solver paths the equivalence tests compare
// against the production default (see solverPath). Production code has no
// way to select them.

// DenseFallback returns cfg with td and bu instantiation forced onto
// newSparseState's packing-limit fallback: the dense FIFO over the
// compressed view, with the transfer memo.
func DenseFallback(cfg Config) Config {
	cfg.solver = pathDense
	return cfg
}

// Reference returns cfg on the pre-optimisation reference path for every
// engine: the raw view, the dense FIFO and no transfer memo.
func Reference(cfg Config) Config {
	cfg.solver = pathReference
	return cfg
}
