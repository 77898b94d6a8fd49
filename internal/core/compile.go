package core

import (
	"reflect"
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
	// score through their own class distribution).
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

// batchKernelMin is the row count below which ScoreAll scores row-major:
// building the columnar view only pays for itself with enough rows behind
// it. The crossover depends on the learner (EXPERIMENTS.md), so this is a
// shared floor, not a tuned one.
const batchKernelMin = 8

// compiledSet is one immutable generation of compiled kernels, built from
// a snapshot of the analyzer's Models slice. Freshness is checked against
// that snapshot so swapping a sub-model (retraining, ablation masking)
// invalidates the generation, mirroring how a mutated Dataset invalidates
// its cached column view. A Naive Bayes ensemble compiles to one fused
// slab; any other ensemble compiles model by model.
type compiledSet struct {
	fused   *nbayes.Fused         // non-nil: every model scores through it
	kernels []ml.ScoreKernel      // per model when not fused; nil entries score the live model
	batch   []ml.BatchScoreKernel // per model when every retained one has it; else nil
	src     []ml.Classifier       // the Models values the kernels came from
	bufLen  int                   // scratch length scoring needs
	stats   CompileStats
}

// uncomparable stands in the src snapshot for a model whose dynamic type
// == cannot compare (a value holding a slice, say). Such a model never
// compiles, it scores live through trueScore's fallback, so fresh only
// checks its type.
type uncomparable struct{ ml.Classifier }

// fresh reports whether the set still matches the analyzer's models.
func (c *compiledSet) fresh(models []ml.Classifier) bool {
	if c == nil || len(c.src) != len(models) {
		return false
	}
	for i, m := range models {
		if c.src[i] == m {
			continue
		}
		if u, ok := c.src[i].(*uncomparable); !ok || reflect.TypeOf(u.Classifier) != reflect.TypeOf(m) {
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
	c.batch = make([]ml.BatchScoreKernel, len(a.Models))
	for i, m := range a.Models {
		if m == nil {
			continue
		}
		kc, ok := m.(ml.KernelCompiler)
		if !reflect.ValueOf(m).Comparable() {
			c.src[i], ok = &uncomparable{m}, false
		}
		if !ok {
			c.batch = nil
			continue
		}
		k := kc.CompileKernel()
		c.kernels[i] = k
		if bk, ok := k.(ml.BatchScoreKernel); !ok {
			c.batch = nil
		} else if c.batch != nil {
			c.batch[i] = bk
		}
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
// kernel, or the model's own class distribution when it has neither. With
// a fused set, buf holds the event's prepared accumulation and each model
// is scored at most once per prepare; otherwise buf is scratch.
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

// scoreEvent is the per-event rule of Algorithms 2 and 3 that every
// row-major path shares: each retained sub-model whose true value is
// usable adds its argmax match and true-value probability, one whose
// value is missing only marks the event partial, and both averages are
// debiased. contribs, when non-nil, gets each retained sub-model's
// Contribution appended in schema order. buf must have length >= c.bufLen.
func (a *Analyzer) scoreEvent(c *compiledSet, x []int, buf []float64, contribs *[]Contribution) (match, prob float64) {
	var t rowSums
	c.prepare(x, buf)
	for i, m := range a.Models {
		if m == nil {
			continue
		}
		missing, hit, p := a.missing(x, i), false, 0.0
		if missing {
			t.partial = true
		} else {
			p, hit = c.trueScore(m, i, x, x[i], buf)
			t.add(p, hit)
		}
		if contribs != nil {
			*contribs = append(*contribs, Contribution{
				Index: i, Feature: a.Attrs[i].Name, Missing: missing, Match: hit, Prob: p,
				NormalMatch: a.level(a.NormalMatch, i), NormalProb: a.level(a.NormalProb, i),
			})
		}
	}
	return a.finishEvent(x, t)
}

// rowSums is one event's tally under scoreEvent's rule: the argmax
// matches and true-value probabilities of the retained sub-models whose
// value is usable, in ascending model order, how many those were, and
// whether any retained sub-model's value was missing.
type rowSums struct {
	matches, probs, total float64
	partial               bool
}

// add counts one scored sub-model.
func (t *rowSums) add(p float64, hit bool) {
	t.total++
	if hit {
		t.matches++
	}
	t.probs += p
}

// finishEvent turns event x's tally into its two scores, the match and
// probability averages, debiased when a value was missing.
func (a *Analyzer) finishEvent(x []int, t rowSums) (match, prob float64) {
	if t.total == 0 {
		return 0, 0
	}
	// Only a partial event's debias reads the scored models' levels, so
	// the hot loop that tallied t leaves them out.
	var availMatch, availProb float64
	if t.partial {
		for i, m := range a.Models {
			if m != nil && !a.missing(x, i) {
				availMatch += a.level(a.NormalMatch, i)
				availProb += a.level(a.NormalProb, i)
			}
		}
	}
	return a.debias(t.matches/t.total, availMatch, t.total, t.partial, a.NormalMatch),
		a.debias(t.probs/t.total, availProb, t.total, t.partial, a.NormalProb)
}

// trainedRows is what Train's normal-level pass keeps of its training
// set: each row's tally, taken through compiled generation comp, and the
// rows themselves, one byte a value, to recognise them by.
type trainedRows struct {
	comp  *compiledSet
	width int
	x     []uint8 // row r's values are x[r*width : (r+1)*width]
	rows  []rowSums
}

// trainedScores returns the tallies Train kept when ds holds exactly the
// rows Train scored, in the same order, and c is the generation that
// scored them; otherwise nil. The rows are compared value by value, so
// a dataset is judged by what it holds now: one grown with Add or edited
// in place scores through the kernels, and another dataset holding the
// same rows reads the tallies.
func (a *Analyzer) trainedScores(c *compiledSet, ds *ml.Dataset) []rowSums {
	t := a.trained
	if t == nil || t.comp != c || len(ds.X) != len(t.rows) {
		return nil
	}
	for r, x := range ds.X {
		if len(x) != t.width {
			return nil
		}
		for i, v := range t.x[r*t.width : (r+1)*t.width] {
			if x[i] != int(v) {
				return nil
			}
		}
	}
	return t.rows
}

// level is sub-model i's normal level, or 0 when levels were not recorded.
func (a *Analyzer) level(levels []float64, i int) float64 {
	if len(levels) != len(a.Models) {
		return 0
	}
	return levels[i]
}

// kernelScore scores one event under rule s. buf must have length >=
// c.bufLen.
func (a *Analyzer) kernelScore(c *compiledSet, x []int, s Scorer, buf []float64) float64 {
	match, prob := a.scoreEvent(c, x, buf, nil)
	return pick(s, match, prob)
}

// pick returns the score rule s reads of an event's two averages.
func pick(s Scorer, match, prob float64) float64 {
	if s == MatchCount {
		return match
	}
	return prob
}

// ScoreAll scores every row of ds through the compiled kernels, compiling
// on first use, and picks the loop order itself. From batchKernelMin rows,
// when every retained model has a batch kernel, it scores through the
// dataset's columnar view: the accumulation is model-major — each
// sub-model streams down its column with buffers reused across rows — but
// visits models in the same ascending order per row as the per-event
// path. Smaller batches, a fused Naive Bayes ensemble, a model without a
// batch kernel, and a dataset whose schema width differs from the
// analyzer's or whose rows violate its own schema score row by row (which
// tolerates anything). Scoring Train's own training rows again, as
// in-sample calibration does, reads the tallies Train's normal-level pass
// kept instead (trainedScores), with no kernel call. Every way the
// results are bit-identical to calling Score on each row.
func (a *Analyzer) ScoreAll(ds *ml.Dataset, s Scorer) []float64 {
	if ds == nil {
		return nil
	}
	out := make([]float64, ds.Len())
	c := a.compiled()
	if rows := a.trainedScores(c, ds); rows != nil {
		for r, t := range rows {
			match, prob := a.finishEvent(ds.X[r], t)
			out[r] = pick(s, match, prob)
		}
		return out
	}
	var cols *ml.Columns
	if len(out) >= batchKernelMin && c.batch != nil && len(ds.Attrs) == len(a.Attrs) {
		cols, _ = ds.Columns() // nil when the rows violate the schema
	}
	if cols == nil {
		a.scoreRows(c, ds.X, s, out)
		return out
	}
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
		pbuf       = make([]float64, n)
		mbuf       = make([]bool, n)
	)
	for i, bk := range c.batch {
		if bk == nil {
			continue
		}
		at := a.Attrs[i]
		col := cols.Cols[i]
		lvl := 0.0
		if haveLevels {
			lvl = levels[i]
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

// ScoreEvents scores a batch of raw event rows row by row through the
// compiled kernels (compiling on first use), sharing one prediction
// buffer across the batch. It assumes nothing about the rows — short,
// over-long or out-of-range vectors degrade per feature exactly as
// Score's missing-value handling dictates.
func (a *Analyzer) ScoreEvents(xs [][]int, s Scorer) []float64 {
	out := make([]float64, len(xs))
	a.scoreRows(a.compiled(), xs, s, out)
	return out
}

// scoreRows scores xs row-major into out.
func (a *Analyzer) scoreRows(c *compiledSet, xs [][]int, s Scorer, out []float64) {
	buf := make([]float64, c.bufLen)
	for i, x := range xs {
		out[i] = a.kernelScore(c, x, s, buf)
	}
}
