package ml

// ScoreKernel is the contract of a compiled, flat-form inference kernel.
// Cross-feature scoring only ever needs two things from a sub-model per
// event — the probability assigned to the feature's true value and
// whether that value is the argmax prediction — so a kernel can skip
// materialising the full class distribution (a decision tree, for
// example, serves both from precomputed per-leaf slabs in O(depth)).
type ScoreKernel interface {
	// TrueScore returns the probability the model assigns to class v of
	// its target attribute for event x, and whether v is the argmax
	// prediction (first index on ties, as ml.ArgMax). Both results must be
	// bit-identical to deriving them from the source model's
	// PredictProbaInto. scratch must have length >= the target attribute's
	// cardinality and may be clobbered. v must be non-negative; a class
	// index at or beyond the model's class count yields probability 0.
	TrueScore(x []int, v int, scratch []float64) (p float64, match bool)
}

// KernelCompiler is implemented by classifiers that can compile
// themselves into a flat ScoreKernel. Compilation is pure: the returned
// kernel snapshots the model and never observes later mutation.
type KernelCompiler interface {
	CompileKernel() ScoreKernel
}

// BatchScoreKernel is an optional ScoreKernel extension that scores a
// whole dataset through its columnar view in one call, for kernels whose
// evaluation vectorises over rows (RIPPER's condition matrix reduces to
// AND+popcount over posting bitsets).
type BatchScoreKernel interface {
	ScoreKernel
	// TrueScoreAll fills p[r] and match[r] for every row r of ds, where
	// the true value of row r is ds.X[r][target]. Results must be
	// bit-identical to calling TrueScore(ds.X[r], ds.X[r][target], ...)
	// per row. ds must satisfy its own schema (Validate), or the call
	// panics, and p and match must have length ds.Len().
	TrueScoreAll(ds *Dataset, target int, p []float64, match []bool)
}

// DatasetOf wraps an existing schema and row block as a Dataset without
// copying or validating — the adapter batch scorers use to run a slice of
// already-transformed rows through a Dataset-shaped API. The rows are
// shared, not copied, and callers asserting schema validity should run
// Validate themselves.
func DatasetOf(attrs []Attr, rows [][]int) *Dataset {
	return &Dataset{Attrs: attrs, X: rows}
}
