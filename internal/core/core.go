// Package core implements the paper's primary contribution: cross-feature
// analysis for anomaly detection.
//
// Given normal-only training vectors over features {f_1..f_L}, the
// training procedure (Algorithm 1) fits one sub-model per feature,
// C_i: {f_1..f_L}\{f_i} -> f_i. At test time an event is scored either by
// the average match count (Algorithm 2) — the fraction of sub-models whose
// prediction equals the feature's true value — or by the average
// probability (Algorithm 3) — the mean probability the sub-models assign
// to the true values. Normal events score high because normal inter-
// feature correlations hold; anomalies break those correlations and score
// low. An event is flagged as an anomaly when its score falls below a
// decision threshold calibrated on normal data at a chosen confidence
// level (one minus the acceptable false-alarm rate).
package core

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"crossfeature/internal/ml"
)

// Scorer selects the combination rule applied over the sub-models.
type Scorer int

const (
	// MatchCount is Algorithm 2: average 0/1 prediction matches.
	MatchCount Scorer = iota + 1
	// Probability is Algorithm 3: average probability of the true values.
	Probability
)

// String implements fmt.Stringer.
func (s Scorer) String() string {
	switch s {
	case MatchCount:
		return "avg-match-count"
	case Probability:
		return "avg-probability"
	default:
		return fmt.Sprintf("Scorer(%d)", int(s))
	}
}

// TrainOptions tunes Algorithm 1.
type TrainOptions struct {
	// Parallelism bounds concurrent sub-model fits and the workers of the
	// normal-level pass that follows them; <=0 uses GOMAXPROCS.
	Parallelism int
	// SkipConstant omits sub-models for features that take a single value
	// in training. Such models trivially predict that value with
	// probability one, diluting scores equally for all events; the paper
	// keeps all L features, so the default is false.
	SkipConstant bool
}

// Analyzer is the trained cross-feature model: one classifier per
// (retained) feature.
type Analyzer struct {
	// Attrs is the nominal feature schema.
	Attrs []ml.Attr
	// Models holds one classifier per feature; nil when skipped.
	Models []ml.Classifier
	// LearnerName records which base learner produced the sub-models.
	LearnerName string
	// NormalMatch and NormalProb record each sub-model's mean match rate
	// and mean true-value probability on the normal training data. Sub-
	// models differ widely in how predictable their target feature is, so
	// an event scored over a subset of models (degraded audit records with
	// missing features) is biased by whichever subset survived; these
	// levels let scoring debias such partial averages. Empty on analyzers
	// built without Train (scores then fall back to plain averages).
	NormalMatch []float64
	NormalProb  []float64

	// compMu serialises flat-form kernel compilation; comp caches the
	// current compiled generation together with the Models snapshot it
	// came from, so a swapped sub-model triggers recompilation (see
	// compile.go). Both are ignored by gob, which persists only the
	// exported model fields.
	compMu sync.Mutex
	comp   atomic.Pointer[compiledSet]
	// trained holds the score tallies of Train's own training rows,
	// which ScoreAll reads when asked to score those rows again. Set
	// once, before Train returns the analyzer; never persisted.
	trained *trainedRows
}

// Train runs Algorithm 1: fit classifier C_i for every feature f_i on the
// normal-only dataset ds. Sub-model training is embarrassingly parallel
// and runs on a bounded worker pool, as does the normal-level pass that
// follows it; the result is bit-identical for any Parallelism.
func Train(ds *ml.Dataset, learner ml.Learner, opts TrainOptions) (*Analyzer, error) {
	if ds == nil || ds.Len() == 0 {
		return nil, fmt.Errorf("core: empty training set")
	}
	if learner == nil {
		return nil, fmt.Errorf("core: nil learner")
	}
	// Dataset.X is exported, so rows may not have passed Add's checks. The
	// column view's build validates them, and building it before fanning
	// out means all L sub-model fits share this one build and one check
	// instead of the first worker building it while the rest block on the
	// cache mutex.
	if _, err := ds.Columns(); err != nil {
		return nil, fmt.Errorf("core: invalid training set: %w", err)
	}
	l := len(ds.Attrs)
	a := &Analyzer{
		Attrs:       append([]ml.Attr(nil), ds.Attrs...),
		Models:      make([]ml.Classifier, l),
		LearnerName: learner.Name(),
	}
	workers := opts.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > l {
		workers = l
	}

	targets := make(chan int)
	errs := make([]error, l)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range targets {
				c, err := learner.Fit(ds, i)
				if err != nil {
					errs[i] = fmt.Errorf("core: sub-model for %q: %w", ds.Attrs[i].Name, err)
					continue
				}
				a.Models[i] = c
			}
		}()
	}
	for i := 0; i < l; i++ {
		if opts.SkipConstant && ds.Attrs[i].Card < 2 {
			continue
		}
		targets <- i
	}
	close(targets)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if a.NumModels() == 0 {
		return nil, fmt.Errorf("core: no sub-models trained")
	}
	a.fitNormalLevels(ds, workers)
	return a, nil
}

// levelBlockRows is how many rows a worker of the normal-level pass
// claims at a time, and levelRoundBlocks how many blocks per worker one
// round of the pass holds before the reducer folds them in. A round's
// results take levelRoundBlocks*levelBlockRows*L*9 bytes per worker
// (322 KB at 140 sub-models on two workers), where holding every row's
// would take 2.5 MB at 2,000 rows; a worker that finishes its share of a
// round early idles for at most one block.
const (
	levelBlockRows   = 16
	levelRoundBlocks = 8
)

// fitNormalLevels measures every sub-model's in-sample score level — its
// mean 0/1 match rate and mean true-value probability over the normal
// training rows. Scoring uses these to keep partial averages (events with
// missing features) on the same scale as full ones. The pass scores
// through the compiled kernels (compiling the analyzer as a side effect).
// It runs in rounds: up to workers (>= 1) workers score a round's blocks
// of rows into per-row slots, then the calling goroutine adds the slots
// into the sums in row order. Each model's sums therefore still run over
// the rows in order, so the levels are bit-identical to summing the
// models' own PredictProbaInto row by row, for any worker count.
//
// The same per-model results make up every training row's score: each
// worker also tallies its rows under scoreEvent's rule, and the pass
// keeps the tallies with a one-byte-a-value copy of the rows, when every
// value fits a byte, for ScoreAll to read when asked to score those rows
// again (trainedScores).
func (a *Analyzer) fitNormalLevels(ds *ml.Dataset, workers int) {
	l, n := len(a.Models), len(ds.X)
	match := make([]float64, l)
	prob := make([]float64, l)
	c := a.compiled()
	round := workers * levelRoundBlocks * levelBlockRows
	ps := make([]float64, min(n, round)*l)
	hits := make([]bool, len(ps))
	bufs := make([][]float64, workers)
	rows := make([]rowSums, n)
	for lo := 0; lo < n; lo += round {
		hi := min(n, lo+round)
		parallelFor(workers, (hi-lo+levelBlockRows-1)/levelBlockRows, func(w, b int) {
			if bufs[w] == nil {
				bufs[w] = make([]float64, c.bufLen)
			}
			buf := bufs[w]
			for r := lo + b*levelBlockRows; r < min(hi, lo+(b+1)*levelBlockRows); r++ {
				x, slot := ds.X[r], (r-lo)*l
				c.prepare(x, buf)
				t := &rows[r]
				for i, m := range a.Models {
					if m == nil {
						continue
					}
					if x[i] < 0 {
						t.partial = true
						continue // a negative value is never matched nor scored
					}
					p, hit := c.trueScore(m, i, x, x[i], buf)
					ps[slot+i], hits[slot+i] = p, hit
					if a.missing(x, i) {
						t.partial = true
						continue // levelled, but left out of the row's score
					}
					t.add(p, hit)
				}
			}
		})
		for r := lo; r < hi; r++ {
			x, slot := ds.X[r], (r-lo)*l
			for i, m := range a.Models {
				if m == nil || x[i] < 0 {
					continue
				}
				if hits[slot+i] {
					match[i]++
				}
				prob[i] += ps[slot+i]
			}
		}
	}
	for i, m := range a.Models {
		if m != nil {
			match[i] /= float64(n)
			prob[i] /= float64(n)
		}
	}
	a.NormalMatch, a.NormalProb = match, prob
	if a.maxCard() <= 1<<8 { // Train validated every value into [0, Card)
		x := make([]uint8, 0, n*l)
		for _, row := range ds.X {
			for _, v := range row {
				x = append(x, uint8(v))
			}
		}
		a.trained = &trainedRows{comp: c, width: l, x: x, rows: rows}
	}
}

// maxCard reports the largest attribute cardinality — the prediction
// buffer size that fits every sub-model's class distribution.
func (a *Analyzer) maxCard() int {
	max := 1
	for _, at := range a.Attrs {
		if at.Card > max {
			max = at.Card
		}
	}
	return max
}

// NumModels reports how many sub-models were retained.
func (a *Analyzer) NumModels() int {
	n := 0
	for _, m := range a.Models {
		if m != nil {
			n++
		}
	}
	return n
}

// missing reports whether event value x[i] is unusable as the true value
// of feature i: absent from the vector, outside the attribute's range, or
// the attribute's dedicated unknown class. Such features are skipped by
// the combination rules — the remaining sub-models still yield a usable
// (if lower-confidence) score, so a degraded audit record never errors.
func (a *Analyzer) missing(x []int, i int) bool {
	if i >= len(x) {
		return true
	}
	return a.Attrs[i].Missing(x[i])
}

// debias rescales the partial average of an event with missing features so
// its expected value on normal data matches the full-model level, then
// shrinks it toward that level in proportion to how much of the ensemble
// is missing. Sub-models score their targets at very different normal
// levels (a node's mobility is far less predictable than, say, its
// control-traffic volume), so averaging whichever subset survives a
// degraded audit record shifts the score for structural reasons unrelated
// to anomaly; the rescale cancels the subset's level relative to the full
// ensemble. The shrink accounts for the remaining estimator variance: a
// mean over k of L sub-models swings sqrt(L/k) times wider than the full
// average, so a degraded record is a lower-confidence observation and its
// score moves proportionally less far from the normal level — it still
// alarms under a real anomaly, but random excursions of a small surviving
// subset do not cross the threshold. Events with no missing features, and
// analyzers without recorded levels, pass through unchanged.
func (a *Analyzer) debias(raw, availLevel, total float64, anyMissing bool, levels []float64) float64 {
	if !anyMissing || len(levels) != len(a.Models) || availLevel <= 0 {
		return raw
	}
	var fullSum, models float64
	for i, m := range a.Models {
		if m != nil {
			fullSum += levels[i]
			models++
		}
	}
	if models == 0 || fullSum <= 0 {
		return raw
	}
	level := fullSum / models
	scaled := raw * level / (availLevel / total)
	scaled = level + (scaled-level)*math.Sqrt(total/models)
	if scaled > 1 {
		scaled = 1
	}
	if scaled < 0 {
		scaled = 0
	}
	return scaled
}

// Score applies the selected combination rule to one event through the
// compiled kernels, compiling on first use (see Compile).
func (a *Analyzer) Score(x []int, s Scorer) float64 {
	c := a.compiled()
	return a.kernelScore(c, x, s, make([]float64, c.bufLen))
}

// Threshold calibrates the decision threshold from normal-data scores: the
// lower quantile at the given false-alarm rate, so that a fraction
// (1 - falseAlarmRate) of normal events score at or above it — the
// paper's "lower bound of output values with certain confidence level".
//
// The calibration is total: non-finite scores are ignored, an empty (or
// all-non-finite) input yields threshold 0 (nothing is ever flagged, the
// conservative default for an uncalibrated detector), and a degenerate
// all-identical score distribution yields that score — combined with the
// strict "score < threshold" alarm rule, identical normal scores are never
// flagged. The returned threshold is always a finite number.
func Threshold(normalScores []float64, falseAlarmRate float64) float64 {
	th, _ := Calibrate(normalScores, falseAlarmRate)
	return th
}

// Calibrate is Threshold with visibility into degenerate calibration: it
// additionally reports how many non-finite scores were dropped from the
// normal sample, so callers can warn the operator that the model is
// emitting NaN/Inf on its own training data instead of silently
// calibrating on the survivors.
func Calibrate(normalScores []float64, falseAlarmRate float64) (threshold float64, dropped int) {
	sorted := make([]float64, 0, len(normalScores))
	for _, s := range normalScores {
		if !math.IsNaN(s) && !math.IsInf(s, 0) {
			sorted = append(sorted, s)
		}
	}
	dropped = len(normalScores) - len(sorted)
	if len(sorted) == 0 {
		return 0, dropped
	}
	if math.IsNaN(falseAlarmRate) || falseAlarmRate < 0 {
		falseAlarmRate = 0
	}
	if falseAlarmRate > 1 {
		falseAlarmRate = 1
	}
	sort.Float64s(sorted)
	idx := int(falseAlarmRate * float64(len(sorted)))
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx], dropped
}

// Detector couples an analyzer with a scorer and calibrated threshold
// (Algorithms 2/3 end-to-end).
type Detector struct {
	Analyzer  *Analyzer
	Scorer    Scorer
	Threshold float64
}

// NewDetector calibrates a detector on normal calibration events at the
// given false-alarm rate.
func NewDetector(a *Analyzer, s Scorer, normalEvents [][]int, falseAlarmRate float64) *Detector {
	scores := a.ScoreEvents(normalEvents, s)
	return &Detector{Analyzer: a, Scorer: s, Threshold: Threshold(scores, falseAlarmRate)}
}

// IsAnomaly classifies one event: true when the score falls below the
// threshold.
func (d *Detector) IsAnomaly(x []int) bool {
	return d.Analyzer.Score(x, d.Scorer) < d.Threshold
}

// Score exposes the detector's raw score for an event.
func (d *Detector) Score(x []int) float64 { return d.Analyzer.Score(x, d.Scorer) }
