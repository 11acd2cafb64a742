package analysis

// NewExhaustiveEngine returns an Engine running the exhaustive
// reference of the exact analysis: every scenario vector is evaluated,
// with no prune bound, no incumbent seed and no round copy. The
// production engine must reproduce its results bit for bit.
func NewExhaustiveEngine(opt Options) *Engine {
	e := NewEngine(opt)
	e.an.exhaustive = true
	return e
}
