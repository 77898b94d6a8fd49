package ml

// Columns is a read-only column-major view of a Dataset: one contiguous
// []int32 per attribute plus per-(attribute,value) posting bitsets.
// Naive Bayes tallies walk one cache-friendly column at a time, C4.5
// reads its target column here, and RIPPER's candidate evaluation
// reduces to AND+popcount over posting sets. A view is immutable once
// built and is shared across the L concurrent Fit calls of core.Train.
type Columns struct {
	// NumRows is the row count the view was built from; a dataset grown
	// afterwards gets a fresh view on the next Columns call.
	NumRows int
	// Cols[a][i] equals Dataset.X[i][a].
	Cols [][]int32
	// Postings[a][v] is the set of rows where attribute a takes value v.
	Postings [][]Bitset
}

// Columns returns the dataset's column-major view, building it on first
// use. The build is guarded by a mutex so concurrent learner fits share a
// single construction; callers must treat both the dataset rows and the
// returned view as read-only while they hold it. Mutating the dataset
// through Add/AddOwned invalidates the cached view.
//
// The build first runs Validate and returns its error, with no view, for
// rows written straight into X that break the schema. Every learner's Fit
// goes through here, so such rows are an error rather than a panic or a
// tally in the wrong cell, and the check runs once per view, not once per
// fit.
func (d *Dataset) Columns() (*Columns, error) {
	d.colMu.Lock()
	defer d.colMu.Unlock()
	if d.colView != nil && d.colView.NumRows == len(d.X) {
		return d.colView, nil
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	d.colView = buildColumns(d)
	return d.colView, nil
}

// invalidateColumns drops the cached view after a mutation.
func (d *Dataset) invalidateColumns() {
	d.colMu.Lock()
	d.colView = nil
	d.colMu.Unlock()
}

func buildColumns(d *Dataset) *Columns {
	n := len(d.X)
	c := &Columns{
		NumRows:  n,
		Cols:     make([][]int32, len(d.Attrs)),
		Postings: make([][]Bitset, len(d.Attrs)),
	}
	// One flat backing array per kind keeps the per-attribute slices
	// contiguous and the build allocation count independent of the schema
	// width.
	var totalCard int
	for _, at := range d.Attrs {
		totalCard += at.Card
	}
	colBack := make([]int32, len(d.Attrs)*n)
	words := (n + 63) / 64
	postBack := make([]uint64, totalCard*words)
	postOff := 0
	for a, at := range d.Attrs {
		col := colBack[a*n : (a+1)*n : (a+1)*n]
		posts := make([]Bitset, at.Card)
		for v := range posts {
			posts[v] = Bitset(postBack[postOff : postOff+words : postOff+words])
			postOff += words
		}
		for i, row := range d.X {
			v := row[a]
			col[i] = int32(v)
			posts[v].Set(i)
		}
		c.Cols[a] = col
		c.Postings[a] = posts
	}
	return c
}
