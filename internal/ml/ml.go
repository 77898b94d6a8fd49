// Package ml provides the shared machine-learning core used by the
// cross-feature analysis framework: a discrete (nominal) dataset
// representation, the Learner/Classifier contracts that every base
// classifier (C4.5, RIPPER, Naive Bayes) satisfies, and common
// information-theoretic utilities.
package ml

import (
	"fmt"
	"math"
	"sync"
)

// Attr describes one nominal attribute: its name and cardinality (values
// are encoded as integers in [0, Card)).
type Attr struct {
	Name string
	Card int
	// HasUnknown marks an attribute whose highest value (Card-1) encodes
	// "value unknown" — e.g. the discretiser's bucket for NaN readings from
	// a degraded audit trail. Scoring layers treat that value as missing
	// (the attribute's sub-model is skipped) rather than as evidence.
	HasUnknown bool
}

// Missing reports whether v encodes a missing/unknown reading of this
// attribute: any out-of-range value, or the dedicated unknown class when
// the attribute has one.
func (a Attr) Missing(v int) bool {
	if v < 0 || v >= a.Card {
		return true
	}
	return a.HasUnknown && v == a.Card-1
}

// Dataset is a table of discrete-valued instances. Rows in X hold one
// value per attribute.
type Dataset struct {
	Attrs []Attr
	X     [][]int

	// colMu guards colView, the lazily built column-major view shared
	// read-only across concurrent learner fits (see Columns).
	colMu   sync.Mutex
	colView *Columns
}

// NewDataset builds an empty dataset with the given attribute schema.
func NewDataset(attrs []Attr) *Dataset {
	return &Dataset{Attrs: append([]Attr(nil), attrs...)}
}

// Add appends an instance, validating its shape and value ranges. The row
// is copied, so callers may reuse their buffer for the next instance.
func (d *Dataset) Add(row []int) error {
	if err := d.checkRow(row); err != nil {
		return err
	}
	d.X = append(d.X, append([]int(nil), row...))
	d.invalidateColumns()
	return nil
}

// AddOwned appends an instance without copying: ownership of row transfers
// to the dataset, and the caller must not modify it afterwards. Use it when
// the row was freshly allocated anyway (e.g. a discretiser transform) to
// avoid Add's defensive copy.
func (d *Dataset) AddOwned(row []int) error {
	if err := d.checkRow(row); err != nil {
		return err
	}
	d.X = append(d.X, row)
	d.invalidateColumns()
	return nil
}

func (d *Dataset) checkRow(row []int) error {
	if len(row) != len(d.Attrs) {
		return fmt.Errorf("ml: row has %d values, schema has %d attributes", len(row), len(d.Attrs))
	}
	for j, v := range row {
		if v < 0 || v >= d.Attrs[j].Card {
			return fmt.Errorf("ml: value %d out of range [0,%d) for attribute %q", v, d.Attrs[j].Card, d.Attrs[j].Name)
		}
	}
	return nil
}

// Len reports the number of instances.
func (d *Dataset) Len() int { return len(d.X) }

// Validate checks every row against the schema.
func (d *Dataset) Validate() error {
	for i, row := range d.X {
		if len(row) != len(d.Attrs) {
			return fmt.Errorf("ml: row %d has %d values, schema has %d attributes", i, len(row), len(d.Attrs))
		}
		for j, v := range row {
			if v < 0 || v >= d.Attrs[j].Card {
				return fmt.Errorf("ml: row %d value %d out of range for attribute %q", i, v, d.Attrs[j].Name)
			}
		}
	}
	return nil
}

// ClassCounts tallies the values of attribute target across rows.
func (d *Dataset) ClassCounts(target int) []int {
	counts := make([]int, d.Attrs[target].Card)
	for _, row := range d.X {
		counts[row[target]]++
	}
	return counts
}

// Classifier predicts a distribution over the classes of one target
// attribute from a full feature vector (the target column, if present in
// the vector, is ignored by construction: learners never condition on it).
type Classifier interface {
	// PredictProba returns a probability for each class of the target
	// attribute; the slice length equals the target's cardinality and the
	// entries sum to 1.
	PredictProba(x []int) []float64
}

// Learner fits a Classifier that predicts attribute target of ds from the
// remaining attributes.
type Learner interface {
	Fit(ds *Dataset, target int) (Classifier, error)
	// Name identifies the algorithm for reports ("C4.5", "RIPPER", "NBC").
	Name() string
}

// IntoProber is an optional Classifier extension for allocation-free
// scoring: PredictProbaInto writes the class distribution into out —
// which must have length >= the target attribute's cardinality — and
// returns the filled prefix. The values must be identical to what
// PredictProba returns. Cross-feature scoring evaluates ~L sub-models
// per event, so the per-call allocation of PredictProba dominates the
// hot path; all three base classifiers implement this.
type IntoProber interface {
	PredictProbaInto(x []int, out []float64) []float64
}

// ProbaInto calls c's PredictProbaInto when implemented, falling back to
// the allocating PredictProba otherwise.
func ProbaInto(c Classifier, x []int, out []float64) []float64 {
	if p, ok := c.(IntoProber); ok {
		return p.PredictProbaInto(x, out)
	}
	return c.PredictProba(x)
}

// Predict returns the argmax class of a classifier's distribution.
func Predict(c Classifier, x []int) int {
	return ArgMax(c.PredictProba(x))
}

// ArgMax returns the index of the largest value (first on ties).
func ArgMax(p []float64) int {
	best, bi := math.Inf(-1), 0
	for i, v := range p {
		if v > best {
			best, bi = v, i
		}
	}
	return bi
}

// Entropy computes the Shannon entropy (bits) of a count vector.
func Entropy(counts []int) float64 {
	var total int
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	var h float64
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := float64(c) / float64(total)
		// The conversion rounds the product before the subtraction, so a
		// compiler that fuses multiply-adds computes the same bits as
		// Log2Tables.PLog.
		h -= float64(p * math.Log2(p))
	}
	return h
}

// Laplace converts a count vector to Laplace-smoothed probabilities.
func Laplace(counts []int) []float64 {
	return LaplaceInto(counts, make([]float64, len(counts)))
}

// LaplaceInto is Laplace writing into out, which must have length >=
// len(counts); it returns the filled prefix.
func LaplaceInto(counts []int, out []float64) []float64 {
	k := len(counts)
	var total int
	for _, c := range counts {
		total += c
	}
	out = out[:k]
	den := float64(total + k)
	for i, c := range counts {
		out[i] = (float64(c) + 1) / den
	}
	return out
}

// Majority returns the most frequent class (first on ties).
func Majority(counts []int) int {
	best, bi := -1, 0
	for i, c := range counts {
		if c > best {
			best, bi = c, i
		}
	}
	return bi
}

// Subset returns a dataset view containing the selected row indices. The
// underlying rows are shared, not copied.
func (d *Dataset) Subset(idx []int) *Dataset {
	out := &Dataset{Attrs: d.Attrs, X: make([][]int, 0, len(idx))}
	for _, i := range idx {
		out.X = append(out.X, d.X[i])
	}
	return out
}
