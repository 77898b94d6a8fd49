// Package c45 implements a C4.5-style decision-tree learner (Quinlan):
// multiway splits on nominal attributes chosen by gain ratio, recursive
// partitioning with minimum-leaf stopping, pessimistic error-based
// subtree pruning, and Laplace-smoothed class distributions at the leaves
// (the probability output Algorithm 3 of the paper requires).
package c45

import (
	"fmt"
	"math"

	"crossfeature/internal/ml"
)

// Learner configures tree induction.
type Learner struct {
	// MinLeaf is the minimum number of instances a split branch must carry
	// (C4.5's -m, default 2).
	MinLeaf int
	// MaxDepth caps tree depth; 0 means unbounded.
	MaxDepth int
	// Prune enables pessimistic error pruning.
	Prune bool
	// CF is the pruning confidence (C4.5's -c, default 0.25); a value
	// outside (0, 1) takes the default.
	CF float64
	// HoldoutFrac, when positive, withholds the trailing fraction of the
	// training instances as a validation block: the tree is grown on the
	// leading block, pruned with reduced-error pruning against the
	// validation block, and leaf distributions are recalibrated on all
	// data afterwards. The split is temporal (contiguous), which matters
	// for autocorrelated audit traces: a shuffled split would leak the
	// trace's local regime into validation and defeat the pruning.
	HoldoutFrac float64
}

// NewLearner returns a learner with Quinlan's default settings.
func NewLearner() *Learner {
	return &Learner{MinLeaf: 2, Prune: true, CF: 0.25}
}

// Name implements ml.Learner.
func (l *Learner) Name() string { return "C4.5" }

// Node is one tree node. Exported fields keep the model gob-serialisable.
type Node struct {
	// Attr is the split attribute index, or -1 for a leaf.
	Attr int
	// Children maps each value of Attr to a subtree; nil entries fall back
	// to this node's own counts.
	Children []*Node
	// Counts is the class histogram of the training instances that reached
	// this node; kept on internal nodes too for unseen-branch fallback.
	Counts []int
}

// Tree is a fitted decision tree for one target attribute.
type Tree struct {
	Root    *Node
	Target  int
	Classes int
}

var (
	_ ml.Classifier = (*Tree)(nil)
	_ ml.IntoProber = (*Tree)(nil)
)

// Fit implements ml.Learner. Every candidate attribute's contingency
// counts for a node come from one pass over the node's rows, and child
// partitions reuse the winning attribute's histogram instead of
// re-tallying. Rows written straight into ds.X that break the schema are
// an error.
func (l *Learner) Fit(ds *ml.Dataset, target int) (ml.Classifier, error) {
	if target < 0 || target >= len(ds.Attrs) {
		return nil, fmt.Errorf("c45: target %d outside schema of %d attributes", target, len(ds.Attrs))
	}
	if ds.Len() == 0 {
		return nil, fmt.Errorf("c45: empty dataset")
	}
	minLeaf := l.MinLeaf
	if minLeaf < 1 {
		minLeaf = 2
	}
	cf := l.CF
	if !(cf > 0 && cf < 1) {
		cf = 0.25
	}
	b, err := newBuilder(ds, target, minLeaf, l.MaxDepth)
	if err != nil {
		return nil, fmt.Errorf("c45: %w", err)
	}
	rows := make([]int, ds.Len())
	for i := range rows {
		rows[i] = i
	}
	growRows := rows
	var valRows []int
	if l.HoldoutFrac > 0 && l.HoldoutFrac < 1 {
		cut := int(float64(len(rows)) * (1 - l.HoldoutFrac))
		if cut >= 1 && cut < len(rows) {
			growRows, valRows = rows[:cut], rows[cut:]
		}
	}
	used := make([]bool, len(ds.Attrs))
	used[target] = true
	root := b.build(growRows, used, 0, b.tally(growRows))
	if l.Prune {
		z := zFromCF(cf)
		pruneNode(root, z)
	}
	if len(valRows) > 0 {
		b.reducedErrorPrune(root, valRows)
		b.recalibrate(root, rows)
	}
	return &Tree{Root: root, Target: target, Classes: b.classes}, nil
}

// reducedErrorPrune collapses subtrees that do not beat a leaf on the
// held-out validation rows; it returns the subtree's validation errors.
func (b *builder) reducedErrorPrune(n *Node, valRows []int) int {
	leafMaj := ml.Majority(n.Counts)
	leafErrs := 0
	for _, i := range valRows {
		if b.ds.X[i][b.target] != leafMaj {
			leafErrs++
		}
	}
	if n.Attr < 0 {
		return leafErrs
	}
	// Partition validation rows by the split attribute.
	card := b.ds.Attrs[n.Attr].Card
	parts := make([][]int, card)
	for _, i := range valRows {
		v := b.ds.X[i][n.Attr]
		parts[v] = append(parts[v], i)
	}
	subErrs := 0
	for v, ch := range n.Children {
		if ch == nil {
			// Missing branch falls back to this node's majority.
			for _, i := range parts[v] {
				if b.ds.X[i][b.target] != leafMaj {
					subErrs++
				}
			}
			continue
		}
		subErrs += b.reducedErrorPrune(ch, parts[v])
	}
	if leafErrs <= subErrs {
		n.Attr = -1
		n.Children = nil
		return leafErrs
	}
	return subErrs
}

// recalibrate rebuilds every node's class histogram from the given rows so
// leaf probabilities reflect the full training data under the pruned
// structure.
func (b *builder) recalibrate(root *Node, rows []int) {
	clearCounts(root, b.classes)
	for _, i := range rows {
		x := b.ds.X[i]
		cls := x[b.target]
		n := root
		for {
			n.Counts[cls]++
			if n.Attr < 0 {
				break
			}
			v := x[n.Attr]
			if v < 0 || v >= len(n.Children) || n.Children[v] == nil {
				break
			}
			n = n.Children[v]
		}
	}
}

func clearCounts(n *Node, classes int) {
	if n == nil {
		return
	}
	n.Counts = make([]int, classes)
	for _, ch := range n.Children {
		clearCounts(ch, classes)
	}
}

func pure(counts []int) bool {
	seen := false
	for _, c := range counts {
		if c > 0 {
			if seen {
				return false
			}
			seen = true
		}
	}
	return true
}

// --- pruning -----------------------------------------------------------------

// zFromCF converts a pruning confidence into the standard normal deviate
// used by the pessimistic error estimate (C4.5 uses the one-sided upper
// confidence limit of the binomial error rate).
func zFromCF(cf float64) float64 {
	// Inverse standard normal CDF at (1 - cf) via the Acklam rational
	// approximation; cf in (0,1).
	return invNorm(1 - cf)
}

// invNorm is Acklam's inverse-normal-CDF approximation (|err| < 1.15e-9).
func invNorm(p float64) float64 {
	if p <= 0 || p >= 1 {
		if p <= 0 {
			return math.Inf(-1)
		}
		return math.Inf(1)
	}
	a := []float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
		1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := []float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
		6.680131188771972e+01, -1.328068155288572e+01}
	c := []float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
		-2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	d := []float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
		3.754408661907416e+00}
	const plow, phigh = 0.02425, 1 - 0.02425
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p > phigh:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	default:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	}
}

// pessimisticErrors is the upper-confidence estimate of the number of
// errors among n instances with e observed errors.
func pessimisticErrors(n, e int, z float64) float64 {
	if n == 0 {
		return 0
	}
	nf, f := float64(n), float64(e)/float64(n)
	z2 := z * z
	num := f + z2/(2*nf) + z*math.Sqrt(f/nf-f*f/nf+z2/(4*nf*nf))
	return nf * (num / (1 + z2/nf))
}

// pruneNode collapses subtrees whose pessimistic error is no better than a
// leaf's; it returns the subtree's pessimistic error estimate.
func pruneNode(n *Node, z float64) float64 {
	total, errs := leafError(n.Counts)
	leafErr := pessimisticErrors(total, errs, z)
	if n.Attr < 0 {
		return leafErr
	}
	var subErr float64
	for _, ch := range n.Children {
		if ch == nil {
			continue
		}
		subErr += pruneNode(ch, z)
	}
	if leafErr <= subErr+1e-9 {
		n.Attr = -1
		n.Children = nil
		return leafErr
	}
	return subErr
}

// leafError returns (instances, misclassifications) if the node predicted
// its majority class.
func leafError(counts []int) (int, int) {
	var total, best int
	for _, c := range counts {
		total += c
		if c > best {
			best = c
		}
	}
	return total, total - best
}

// --- prediction ------------------------------------------------------------------

// PredictProba implements ml.Classifier: walk the tree, fall back to the
// deepest reached node's counts when a branch is missing, and smooth with
// Laplace's rule.
func (t *Tree) PredictProba(x []int) []float64 {
	return t.PredictProbaInto(x, make([]float64, len(t.Root.Counts)))
}

// PredictProbaInto implements ml.IntoProber: the tree walk is
// allocation-free and the leaf's Laplace distribution is written into
// out (length >= the target's cardinality).
func (t *Tree) PredictProbaInto(x []int, out []float64) []float64 {
	n := t.Root
	for n.Attr >= 0 {
		v := -1
		if n.Attr < len(x) {
			v = x[n.Attr]
		}
		if v < 0 || v >= len(n.Children) || n.Children[v] == nil {
			break
		}
		n = n.Children[v]
	}
	return ml.LaplaceInto(n.Counts, out)
}

// CheckShape reports whether t has the shape Fit produces when predicting
// attribute target over the schema attrs: a root, as many classes as the
// target has values, a class histogram of that length at every node, and
// every split on a schema attribute other than the target, at most once
// per path, with one child slot per value of it. Compile and prediction
// index by these dimensions, so a decoded tree that fails the check must
// not score. A tree that passes is at most len(attrs) levels deep.
func (t *Tree) CheckShape(attrs []ml.Attr, target int) error {
	switch {
	case t == nil || t.Root == nil:
		return fmt.Errorf("c45: tree has no root")
	case target < 0 || target >= len(attrs):
		return fmt.Errorf("c45: target %d outside schema of %d attributes", target, len(attrs))
	case t.Target != target:
		return fmt.Errorf("c45: tree predicts attribute %d, want %d", t.Target, target)
	case t.Classes != attrs[target].Card:
		return fmt.Errorf("c45: %d classes, target %q has %d values", t.Classes, attrs[target].Name, attrs[target].Card)
	}
	used := make([]bool, len(attrs))
	used[target] = true
	var check func(n *Node) error
	check = func(n *Node) error {
		if len(n.Counts) != t.Classes {
			return fmt.Errorf("c45: node histogram has %d classes, want %d", len(n.Counts), t.Classes)
		}
		if n.Attr == -1 && len(n.Children) == 0 {
			return nil
		}
		if n.Attr < 0 || n.Attr >= len(attrs) || used[n.Attr] {
			return fmt.Errorf("c45: split on attribute %d: a leaf with children, outside the schema, the target or already split above", n.Attr)
		}
		if len(n.Children) != attrs[n.Attr].Card {
			return fmt.Errorf("c45: split on attribute %d has %d children, it has %d values", n.Attr, len(n.Children), attrs[n.Attr].Card)
		}
		used[n.Attr] = true
		for _, ch := range n.Children {
			if ch == nil {
				continue
			}
			if err := check(ch); err != nil {
				return err
			}
		}
		used[n.Attr] = false
		return nil
	}
	return check(t.Root)
}

// Size reports the number of nodes in the tree (for tests and reports).
func (t *Tree) Size() int { return nodeCount(t.Root) }

func nodeCount(n *Node) int {
	if n == nil {
		return 0
	}
	total := 1
	for _, ch := range n.Children {
		total += nodeCount(ch)
	}
	return total
}

// Depth reports the maximum depth of the tree.
func (t *Tree) Depth() int { return nodeDepth(t.Root) }

func nodeDepth(n *Node) int {
	if n == nil || n.Attr < 0 {
		return 0
	}
	best := 0
	for _, ch := range n.Children {
		if d := nodeDepth(ch); d > best {
			best = d
		}
	}
	return best + 1
}
