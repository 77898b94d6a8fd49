package ml

import (
	"math/rand"
	"sync"
	"testing"
)

func testDataset(t *testing.T, rows int) *Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(rows) + 5))
	attrs := []Attr{
		{Name: "a", Card: 3},
		{Name: "b", Card: 5, HasUnknown: true},
		{Name: "c", Card: 2},
		{Name: "d", Card: 7},
	}
	ds := NewDataset(attrs)
	row := make([]int, len(attrs))
	for i := 0; i < rows; i++ {
		for j, at := range attrs {
			row[j] = rng.Intn(at.Card)
		}
		if err := ds.Add(row); err != nil {
			t.Fatal(err)
		}
	}
	return ds
}

// TestColumnsMatchesRows checks the column-major view against the
// row-major truth: every column value and every posting-set membership.
func TestColumnsMatchesRows(t *testing.T) {
	for _, rows := range []int{0, 1, 63, 64, 65, 200} {
		ds := testDataset(t, rows)
		cols := mustColumns(t, ds)
		if cols.NumRows != rows {
			t.Fatalf("rows=%d: NumRows=%d", rows, cols.NumRows)
		}
		for a, at := range ds.Attrs {
			if len(cols.Cols[a]) != rows || len(cols.Postings[a]) != at.Card {
				t.Fatalf("rows=%d attr=%d: bad view shape", rows, a)
			}
			for i, row := range ds.X {
				if int(cols.Cols[a][i]) != row[a] {
					t.Fatalf("rows=%d: Cols[%d][%d]=%d, want %d", rows, a, i, cols.Cols[a][i], row[a])
				}
			}
			for v := 0; v < at.Card; v++ {
				want := 0
				for i, row := range ds.X {
					member := row[a] == v
					if member {
						want++
					}
					if cols.Postings[a][v].Contains(i) != member {
						t.Fatalf("rows=%d: posting (%d,%d) membership of row %d wrong", rows, a, v, i)
					}
				}
				if got := cols.Postings[a][v].Count(); got != want {
					t.Fatalf("rows=%d: posting (%d,%d) count %d, want %d", rows, a, v, got, want)
				}
			}
		}
	}
}

func mustColumns(t *testing.T, ds *Dataset) *Columns {
	t.Helper()
	cols, err := ds.Columns()
	if err != nil {
		t.Fatal(err)
	}
	return cols
}

// TestColumnsRejectsMalformedRows pins that rows written straight into
// the exported X, bypassing Add's checks, get Validate's error and no
// view, and that a repaired dataset builds one.
func TestColumnsRejectsMalformedRows(t *testing.T) {
	for name, corrupt := range map[string]func(ds *Dataset){
		"out-of-range value": func(ds *Dataset) { ds.X[5][1] = 5 },
		"short row":          func(ds *Dataset) { ds.X[5] = ds.X[5][:2] },
		"negative value":     func(ds *Dataset) { ds.X[5][0] = -1 },
	} {
		ds := testDataset(t, 20)
		good := append([]int(nil), ds.X[5]...)
		corrupt(ds)
		want := ds.Validate()
		if want == nil {
			t.Fatalf("%s: Validate accepted the row", name)
		}
		if cols, err := ds.Columns(); cols != nil || err == nil || err.Error() != want.Error() {
			t.Errorf("%s: Columns = (%v, %v), want no view and %q", name, cols, err, want)
		}
		ds.X[5] = good
		if cols, err := ds.Columns(); cols == nil || err != nil {
			t.Errorf("%s: repaired dataset: Columns = (%v, %v)", name, cols, err)
		}
	}
}

// TestColumnsCachedAndInvalidated checks the view is built once, shared,
// and rebuilt after a mutation through Add/AddOwned.
func TestColumnsCachedAndInvalidated(t *testing.T) {
	ds := testDataset(t, 50)
	c1 := mustColumns(t, ds)
	if c2 := mustColumns(t, ds); c2 != c1 {
		t.Fatal("second Columns call did not return the cached view")
	}
	if err := ds.Add([]int{1, 1, 1, 1}); err != nil {
		t.Fatal(err)
	}
	c3 := mustColumns(t, ds)
	if c3 == c1 {
		t.Fatal("Columns view not rebuilt after Add")
	}
	if c3.NumRows != 51 || !c3.Postings[0][1].Contains(50) {
		t.Fatal("rebuilt view does not include the appended row")
	}
	if err := ds.AddOwned([]int{2, 2, 0, 2}); err != nil {
		t.Fatal(err)
	}
	if c4 := mustColumns(t, ds); c4 == c3 || c4.NumRows != 52 {
		t.Fatal("Columns view not rebuilt after AddOwned")
	}
}

// TestColumnsConcurrent hammers Columns from many goroutines (run under
// -race): all callers must observe one identical view.
func TestColumnsConcurrent(t *testing.T) {
	ds := testDataset(t, 500)
	var wg sync.WaitGroup
	views := make([]*Columns, 16)
	for g := range views {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			views[g], _ = ds.Columns()
		}(g)
	}
	wg.Wait()
	for g := range views {
		if views[g] == nil || views[g] != views[0] {
			t.Fatal("concurrent Columns calls returned different views")
		}
	}
}

// TestAddCopiesRow is the regression test for the Add aliasing bug: a
// caller reusing its row buffer must not corrupt earlier instances.
func TestAddCopiesRow(t *testing.T) {
	ds := NewDataset([]Attr{{Name: "a", Card: 4}, {Name: "b", Card: 4}})
	buf := []int{1, 2}
	if err := ds.Add(buf); err != nil {
		t.Fatal(err)
	}
	buf[0], buf[1] = 3, 3
	if err := ds.Add(buf); err != nil {
		t.Fatal(err)
	}
	if ds.X[0][0] != 1 || ds.X[0][1] != 2 {
		t.Fatalf("Add aliased the caller's buffer: first row is %v, want [1 2]", ds.X[0])
	}
	if ds.X[1][0] != 3 || ds.X[1][1] != 3 {
		t.Fatalf("second row is %v, want [3 3]", ds.X[1])
	}
}

// TestAddOwnedTransfersOwnership documents AddOwned's no-copy contract.
func TestAddOwnedTransfersOwnership(t *testing.T) {
	ds := NewDataset([]Attr{{Name: "a", Card: 4}})
	row := []int{2}
	if err := ds.AddOwned(row); err != nil {
		t.Fatal(err)
	}
	if &ds.X[0][0] != &row[0] {
		t.Fatal("AddOwned copied the row; it must take ownership without copying")
	}
	if err := ds.AddOwned([]int{9}); err == nil {
		t.Fatal("AddOwned accepted an out-of-range value")
	}
}
