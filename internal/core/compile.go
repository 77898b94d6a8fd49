package core

import (
	"time"

	"crossfeature/internal/ml"
	"crossfeature/internal/ml/c45"
	"crossfeature/internal/ml/nbayes"
	"crossfeature/internal/ml/ripper"
)

// CompileStats describes one flat-form kernel build: how many sub-models
// compiled, the footprint of each compiled representation, and the wall
// time of the pass. Serving exports these so reload cost is visible.
type CompileStats struct {
	// Models counts sub-models that compiled to a flat kernel (the rest
	// score through their reference implementation).
	Models int
	// TreeNodes is the total flattened C4.5 node count.
	TreeNodes int
	// RuleConds is the total RIPPER condition-matrix size.
	RuleConds int
	// TableEntries is the total flattened Naive Bayes log-prob entries.
	TableEntries int
	// Duration is the wall time of the compile pass.
	Duration time.Duration
}

// compiledSet is one immutable generation of compiled kernels, built from
// a snapshot of the analyzer's Models slice. Freshness is checked against
// that snapshot so swapping a sub-model (retraining, ablation masking)
// invalidates the generation, mirroring how a mutated Dataset invalidates
// its cached column view. A Naive Bayes ensemble compiles to one fused
// slab; any other ensemble compiles model by model.
type compiledSet struct {
	fused   *nbayes.Fused    // non-nil: every model scores through it
	kernels []ml.ScoreKernel // per model when not fused; nil entries score via the reference model
	src     []ml.Classifier  // the Models values the kernels came from
	bufLen  int              // scratch length scoring needs
	stats   CompileStats
}

// fresh reports whether the set still matches the analyzer's models.
func (c *compiledSet) fresh(models []ml.Classifier) bool {
	if c == nil || len(c.src) != len(models) {
		return false
	}
	for i := range models {
		if c.src[i] != models[i] {
			return false
		}
	}
	return true
}

// Compile builds (or, after a model swap, rebuilds) the analyzer's flat
// inference kernels: contiguous node arrays for C4.5 trees, condition
// matrices for RIPPER rule sets and one fused attribute-major log-prob
// slab for a Naive Bayes ensemble. Scoring uses the kernels automatically
// once built; calling Compile up front just moves the one-time cost to
// load time (the serve path does this on every bundle load so no request
// pays it). The returned stats describe the build. Compilation never
// changes scores: every kernel is pinned bit-identical to its reference
// model.
func (a *Analyzer) Compile() CompileStats {
	return a.compiled().stats
}

// compiled returns the current kernel generation, building it on first
// use or when stale.
func (a *Analyzer) compiled() *compiledSet {
	if c := a.comp.Load(); c.fresh(a.Models) {
		return c
	}
	a.compMu.Lock()
	defer a.compMu.Unlock()
	if c := a.comp.Load(); c.fresh(a.Models) {
		return c
	}
	c := a.buildCompiled()
	a.comp.Store(c)
	return c
}

// compiledOrNil returns the kernels only when the analyzer has opted
// into compiled scoring: an analyzer that was never Compiled, trained or
// batch-scored in this process keeps the reference pointer-walking path.
// Once a generation exists, a stale one — a sub-model swapped by
// retraining or ablation — is rebuilt rather than abandoned, so Score
// stays on the compiled path across model updates.
func (a *Analyzer) compiledOrNil() *compiledSet {
	c := a.comp.Load()
	if c == nil {
		return nil
	}
	if c.fresh(a.Models) {
		return c
	}
	return a.compiled()
}

func (a *Analyzer) buildCompiled() *compiledSet {
	start := time.Now()
	c := &compiledSet{
		src:    append([]ml.Classifier(nil), a.Models...),
		bufLen: a.maxCard(),
	}
	if f := nbayes.Fuse(a.Attrs, a.Models); f != nil {
		c.fused = f
		c.bufLen = max(c.bufLen, f.Width())
		c.stats.Models = f.NumModels()
		c.stats.TableEntries = f.NumEntries()
		c.stats.Duration = time.Since(start)
		return c
	}
	c.kernels = make([]ml.ScoreKernel, len(a.Models))
	for i, m := range a.Models {
		kc, ok := m.(ml.KernelCompiler)
		if !ok {
			continue
		}
		k := kc.CompileKernel()
		c.kernels[i] = k
		c.stats.Models++
		switch t := k.(type) {
		case *c45.Compiled:
			c.stats.TreeNodes += t.NumNodes()
		case *ripper.Compiled:
			c.stats.RuleConds += t.NumConds()
		}
	}
	c.stats.Duration = time.Since(start)
	return c
}

// prepare readies buf for scoring event x: a fused set accumulates every
// model's log posterior into it once. buf must have length >= bufLen.
func (c *compiledSet) prepare(x []int, buf []float64) {
	if c.fused != nil {
		c.fused.Accumulate(x, buf)
	}
}

// trueScore returns sub-model i's probability for class v (>= 0) of event
// x and whether v is its argmax, through the fused slab, the model's
// kernel, or the reference model when it has neither. With a fused set,
// buf holds the event's prepared accumulation and each model is scored at
// most once per prepare; otherwise buf is scratch.
func (c *compiledSet) trueScore(m ml.Classifier, i int, x []int, v int, buf []float64) (p float64, match bool) {
	if c.fused != nil {
		return c.fused.TrueScore(buf, i, v)
	}
	if k := c.kernels[i]; k != nil {
		return k.TrueScore(x, v, buf)
	}
	pr := ml.ProbaInto(m, x, buf)
	if v < len(pr) {
		p = pr[v]
	}
	return p, ml.ArgMax(pr) == v
}

// kernelScore scores one event through the compiled kernels, replicating
// avgMatchCount/avgProbability — including the missing-feature skip and
// partial-average debias — bit for bit. buf must have length >= c.bufLen.
func (a *Analyzer) kernelScore(c *compiledSet, x []int, s Scorer, buf []float64) float64 {
	levels := a.NormalProb
	if s == MatchCount {
		levels = a.NormalMatch
	}
	haveLevels := len(levels) == len(a.Models)
	var sum, total, availLevel float64
	anyMissing := false
	c.prepare(x, buf)
	for i, m := range a.Models {
		if m == nil {
			continue
		}
		if a.missing(x, i) {
			anyMissing = true
			continue
		}
		total++
		if haveLevels {
			availLevel += levels[i]
		}
		p, match := c.trueScore(m, i, x, x[i], buf)
		if s == MatchCount {
			if match {
				sum++
			}
		} else {
			sum += p
		}
	}
	if total == 0 {
		return 0
	}
	return a.debias(sum/total, availLevel, total, anyMissing, levels)
}

// ScoreAll scores every row of ds through the compiled kernels, compiling
// on first use. A fused Naive Bayes ensemble scores row by row with one
// reused accumulator. Other ensembles score through the dataset's
// columnar view: the accumulation is model-major — each sub-model streams
// down its column with buffers reused across rows — but visits models in
// the same ascending order per row as the per-event path. Either way the
// results are bit-identical to calling Score on each row. A dataset whose
// schema width differs from the analyzer's, or whose rows violate its own
// schema, falls back to the row-major per-event path (which tolerates
// anything).
func (a *Analyzer) ScoreAll(ds *ml.Dataset, s Scorer) []float64 {
	if ds == nil {
		return nil
	}
	out := make([]float64, ds.Len())
	if len(out) == 0 {
		return out
	}
	c := a.compiled()
	if c.fused != nil || len(ds.Attrs) != len(a.Attrs) || ds.Validate() != nil {
		a.scoreEventsInto(ds.X, s, out)
		return out
	}
	cols := ds.Columns()
	levels := a.NormalProb
	if s == MatchCount {
		levels = a.NormalMatch
	}
	haveLevels := len(levels) == len(a.Models)
	n := len(out)
	var (
		sum        = make([]float64, n)
		avail      = make([]float64, n)
		totals     = make([]int32, n)
		anyMissing = make([]bool, n)
		scratch    = make([]float64, c.bufLen)
		pbuf       []float64
		mbuf       []bool
	)
	for i, m := range a.Models {
		if m == nil {
			continue
		}
		at := a.Attrs[i]
		col := cols.Cols[i]
		lvl := 0.0
		if haveLevels {
			lvl = levels[i]
		}
		if bk, ok := c.kernels[i].(ml.BatchScoreKernel); ok {
			if pbuf == nil {
				pbuf = make([]float64, n)
				mbuf = make([]bool, n)
			}
			bk.TrueScoreAll(ds, i, pbuf, mbuf)
			for r := 0; r < n; r++ {
				if at.Missing(int(col[r])) {
					anyMissing[r] = true
					continue
				}
				totals[r]++
				avail[r] += lvl
				if s == MatchCount {
					if mbuf[r] {
						sum[r]++
					}
				} else {
					sum[r] += pbuf[r]
				}
			}
			continue
		}
		for r := 0; r < n; r++ {
			v := int(col[r])
			if at.Missing(v) {
				anyMissing[r] = true
				continue
			}
			totals[r]++
			avail[r] += lvl
			p, match := c.trueScore(m, i, ds.X[r], v, scratch)
			if s == MatchCount {
				if match {
					sum[r]++
				}
			} else {
				sum[r] += p
			}
		}
	}
	for r := range out {
		if totals[r] == 0 {
			continue
		}
		t := float64(totals[r])
		out[r] = a.debias(sum[r]/t, avail[r], t, anyMissing[r], levels)
	}
	return out
}

// ScoreEvents scores a batch of raw event rows through the compiled
// kernels (compiling on first use), sharing one prediction buffer across
// the batch. Unlike ScoreAll it assumes nothing about the rows — short,
// over-long or out-of-range vectors degrade per feature exactly as
// Score's missing-value handling dictates.
func (a *Analyzer) ScoreEvents(xs [][]int, s Scorer) []float64 {
	out := make([]float64, len(xs))
	a.scoreEventsInto(xs, s, out)
	return out
}

func (a *Analyzer) scoreEventsInto(xs [][]int, s Scorer, out []float64) {
	if len(xs) == 0 {
		return
	}
	c := a.compiled()
	buf := make([]float64, c.bufLen)
	for i, x := range xs {
		out[i] = a.kernelScore(c, x, s, buf)
	}
}
