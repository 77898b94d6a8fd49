package features

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"crossfeature/internal/ml"
)

// DefaultBuckets is the paper's bucket count for equal-frequency
// discretisation.
const DefaultBuckets = 5

// Discretizer maps continuous feature vectors to nominal values using the
// paper's frequency-bucket scheme: each feature's value space is divided
// into ranges with (approximately) equal occurrence frequency on normal
// data, and a value is replaced by its bucket index. Features whose
// observed values collapse to fewer distinct cut points get a
// correspondingly smaller cardinality.
//
// Values outside the range observed on normal data map to two dedicated
// out-of-range buckets with zero normal mass. This range guard implements
// the paper's separability assumption — "a feature vector not related to
// any normal events" must be distinguishable — which plain equal-frequency
// bucketing violates: folding a pathological extreme into the top normal
// bucket makes a saturated attack regime look like an ordinary busy
// period.
//
// Hostile or degraded inputs are also total: NaN maps to a dedicated
// unknown bucket (the highest index) that scoring treats as a missing
// value, and ±Inf map to the below-/above-range guard buckets. Every
// float64 therefore lands in exactly one deterministic bucket and no
// input can panic the transform.
type Discretizer struct {
	// Cuts[j] holds the strictly ascending bucket boundaries of feature j;
	// an in-range value v maps to the number of cuts strictly below it.
	Cuts [][]float64
	// Min and Max are the value ranges observed on normal data; values
	// strictly outside map to the out-of-range buckets.
	Min, Max []float64
	// FeatureNames records the schema for dataset construction.
	FeatureNames []string
}

// FitOptions tunes discretiser fitting.
type FitOptions struct {
	Buckets int
	// SampleSize, when positive, fits on a random subset of rows — the
	// paper's "pre-filtering process using a small random subset".
	SampleSize int
	// Seed drives the sampling.
	Seed int64
}

// Fit learns equal-frequency bucket boundaries from normal-data rows.
func Fit(rows [][]float64, names []string, opts FitOptions) (*Discretizer, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("features: no rows to fit discretizer")
	}
	d := len(rows[0])
	if len(names) != d {
		return nil, fmt.Errorf("features: %d names for %d features", len(names), d)
	}
	buckets := opts.Buckets
	if buckets <= 1 {
		buckets = DefaultBuckets
	}
	sample := rows
	if opts.SampleSize > 0 && opts.SampleSize < len(rows) {
		rng := rand.New(rand.NewSource(opts.Seed))
		idx := rng.Perm(len(rows))[:opts.SampleSize]
		sample = make([][]float64, 0, opts.SampleSize)
		for _, i := range idx {
			sample = append(sample, rows[i])
		}
	}
	disc := &Discretizer{
		Cuts:         make([][]float64, d),
		Min:          make([]float64, d),
		Max:          make([]float64, d),
		FeatureNames: append([]string(nil), names...),
	}
	for _, r := range rows {
		if len(r) != d {
			return nil, fmt.Errorf("features: ragged row with %d values, want %d", len(r), d)
		}
	}
	col := make([]float64, 0, len(sample))
	for j := 0; j < d; j++ {
		// Non-finite training values (a degraded audit trail) carry no
		// boundary information; cuts come from the finite mass only.
		col = col[:0]
		for _, r := range sample {
			if isFinite(r[j]) {
				col = append(col, r[j])
			}
		}
		disc.Cuts[j] = equalFrequencyCuts(col, buckets)
	}
	// Range guard boundaries come from the full normal data, not just the
	// pre-filtering sample, so ordinary normal variation stays in range.
	for j := 0; j < d; j++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, r := range rows {
			if !isFinite(r[j]) {
				continue
			}
			if r[j] < lo {
				lo = r[j]
			}
			if r[j] > hi {
				hi = r[j]
			}
		}
		if lo > hi {
			// No finite observation at all: pin the range so transforms
			// stay deterministic (everything finite is out-of-range).
			lo, hi = 0, 0
		}
		disc.Min[j], disc.Max[j] = lo, hi
	}
	return disc, nil
}

// isFinite reports whether v is an ordinary float (not NaN, not ±Inf).
func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// equalFrequencyCuts returns deduplicated boundaries placed at the
// quantiles that split values into `buckets` equally populated ranges.
// Values equal to a cut fall into the lower bucket.
func equalFrequencyCuts(values []float64, buckets int) []float64 {
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	n := len(sorted)
	if n == 0 {
		return nil
	}
	cuts := make([]float64, 0, buckets-1)
	for b := 1; b < buckets; b++ {
		q := sorted[(n*b)/buckets]
		if len(cuts) > 0 && q <= cuts[len(cuts)-1] {
			continue // duplicate quantile: value mass is concentrated
		}
		// A cut equal to the maximum creates an always-empty top bucket.
		if q >= sorted[n-1] {
			break
		}
		cuts = append(cuts, q)
	}
	return cuts
}

// Cardinality reports the number of buckets feature j maps to: the
// in-range buckets, the two out-of-range guard buckets and the unknown
// bucket.
func (d *Discretizer) Cardinality(j int) int { return len(d.Cuts[j]) + 4 }

// UnknownBucket is feature j's dedicated bucket for missing or undefined
// values (NaN); it is the highest index and has zero normal mass. Scoring
// in internal/core treats it as a missing value: the feature's sub-model
// is skipped rather than scored against a fabricated value.
func (d *Discretizer) UnknownBucket(j int) int { return len(d.Cuts[j]) + 3 }

// Validate reports whether d is a discretiser Fit could have produced,
// the shape TransformValue relies on: Min, Max and Cuts of one length,
// every cut finite and strictly above the one before, and every range
// finite with Min[j] <= Max[j].
func (d *Discretizer) Validate() error {
	if len(d.Min) != len(d.Cuts) || len(d.Max) != len(d.Cuts) {
		return fmt.Errorf("features: discretizer has %d cut lists, %d minima and %d maxima",
			len(d.Cuts), len(d.Min), len(d.Max))
	}
	for j, cuts := range d.Cuts {
		for k, c := range cuts {
			if !isFinite(c) || k > 0 && c <= cuts[k-1] {
				return fmt.Errorf("features: feature %d cut %d (%v) is not finite and strictly ascending", j, k, c)
			}
		}
		if lo, hi := d.Min[j], d.Max[j]; !isFinite(lo) || !isFinite(hi) || lo > hi {
			return fmt.Errorf("features: feature %d has range [%v, %v]", j, lo, hi)
		}
	}
	return nil
}

// TransformValue maps one continuous value of feature j to its bucket.
// Values outside the normal-data range land in the dedicated below-range
// and above-range guard buckets, NaN in the unknown bucket; the transform
// is total over float64. An in-range value's bucket is the number of cuts
// strictly below it, which, for the finite strictly ascending cuts
// Validate requires, is the first bucket whose upper boundary is >= v.
// With four cuts or so per feature, counting them all beats a binary
// search: it has no data-dependent branch to mispredict.
func (d *Discretizer) TransformValue(j int, v float64) int {
	cuts := d.Cuts[j]
	switch {
	case v < d.Min[j]:
		return len(cuts) + 1
	case v > d.Max[j]:
		return len(cuts) + 2
	case v != v: // NaN
		return len(cuts) + 3
	}
	n := 0
	for _, c := range cuts {
		if c < v {
			n++
		}
	}
	return n
}

// TransformInto maps a continuous row to bucket indices in dst, which
// must hold one slot per feature, so a caller can discretise many rows
// into one slab.
func (d *Discretizer) TransformInto(dst []int, row []float64) error {
	if len(row) != len(d.Cuts) {
		return fmt.Errorf("features: row has %d values, discretizer has %d", len(row), len(d.Cuts))
	}
	dst = dst[:len(row)]
	for j, v := range row {
		dst[j] = d.TransformValue(j, v)
	}
	return nil
}

// Transform maps a continuous row to freshly allocated bucket indices.
func (d *Discretizer) Transform(row []float64) ([]int, error) {
	out := make([]int, len(d.Cuts))
	if err := d.TransformInto(out, row); err != nil {
		return nil, err
	}
	return out, nil
}

// Schema builds the nominal attribute schema induced by the fitted cuts.
// Every attribute's top value is the unknown bucket, flagged so scoring
// treats it as a missing reading rather than evidence.
func (d *Discretizer) Schema() []ml.Attr {
	attrs := make([]ml.Attr, len(d.Cuts))
	for j := range d.Cuts {
		attrs[j] = ml.Attr{Name: d.FeatureNames[j], Card: d.Cardinality(j), HasUnknown: true}
	}
	return attrs
}

// Dataset discretises a matrix of continuous rows into an ml.Dataset.
func (d *Discretizer) Dataset(rows [][]float64) (*ml.Dataset, error) {
	ds := ml.NewDataset(d.Schema())
	for _, r := range rows {
		x, err := d.Transform(r)
		if err != nil {
			return nil, err
		}
		// Transform allocates x fresh, so hand it over without the
		// defensive copy ml.Dataset.Add makes.
		if err := ds.AddOwned(x); err != nil {
			return nil, err
		}
	}
	return ds, nil
}
