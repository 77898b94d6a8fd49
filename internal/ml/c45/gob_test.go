package c45

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"flag"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"crossfeature/internal/ml"
)

// fittedTree fits a tree of attribute 2 on a small random dataset with a
// noise attribute, so some splits leave values without a child.
func fittedTree(tb testing.TB) *Tree {
	tb.Helper()
	rng := rand.New(rand.NewSource(11))
	ds := ml.NewDataset([]ml.Attr{{Name: "x", Card: 4}, {Name: "n", Card: 5}, {Name: "y", Card: 3}})
	for i := 0; i < 300; i++ {
		x := rng.Intn(4)
		if err := ds.Add([]int{x, rng.Intn(5), (x + rng.Intn(2)) % 3}); err != nil {
			tb.Fatal(err)
		}
	}
	l := NewLearner()
	l.Prune = false
	c, err := l.Fit(ds, 2)
	if err != nil {
		tb.Fatal(err)
	}
	return c.(*Tree)
}

// sameNode reports whether two subtrees have the same attributes,
// counts, spans and children. A nil slice equals an empty one: the
// encoding keeps lengths only, and every reader treats both alike.
func sameNode(a, b *Node) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Attr != b.Attr || len(a.Counts) != len(b.Counts) || len(a.Children) != len(b.Children) {
		return false
	}
	for i := range a.Counts {
		if a.Counts[i] != b.Counts[i] {
			return false
		}
	}
	for v := range a.Children {
		if !sameNode(a.Children[v], b.Children[v]) {
			return false
		}
	}
	return true
}

func sameTree(a, b *Tree) bool {
	return a.Target == b.Target && a.Classes == b.Classes && sameNode(a.Root, b.Root)
}

func encodeTree(tb testing.TB, t *Tree) []byte {
	tb.Helper()
	data, err := t.GobEncode()
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// TestPreorderRoundTrip pins that GobEncode's form keeps every shape,
// including ones Fit never produces (CheckShape, not the decoder, rejects
// those), and that it starts with the zero byte that tells it from the
// flatTree gob. The flatTree gob of each tree still decodes to the same
// tree.
func TestPreorderRoundTrip(t *testing.T) {
	leaf := func(counts ...int) *Node { return &Node{Attr: -1, Counts: counts} }
	trees := map[string]*Tree{
		"fitted":  fittedTree(t),
		"no root": {Target: 1, Classes: 2},
		"leaf":    {Target: 0, Classes: 1, Root: leaf(5)},
		"odd shapes": {Target: -4, Classes: 3, Root: &Node{Attr: 7, Counts: []int{-1, 1 << 40},
			Children: []*Node{nil, leaf(), nil, {Attr: 2, Children: make([]*Node, 3)}, leaf(1, 2, 3)}}},
	}
	for name, tr := range trees {
		data := encodeTree(t, tr)
		if data[0] != 0 {
			t.Fatalf("%s: encoding starts with %#x, want 0", name, data[0])
		}
		var back Tree
		if err := back.GobDecode(data); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !sameTree(tr, &back) {
			t.Fatalf("%s: round trip changed the tree", name)
		}
		var flat bytes.Buffer
		if err := gob.NewEncoder(&flat).Encode(flatten(tr)); err != nil {
			t.Fatal(err)
		}
		var old Tree
		if err := old.GobDecode(flat.Bytes()); err != nil {
			t.Fatalf("%s: flatTree form: %v", name, err)
		}
		if !sameTree(tr, &old) {
			t.Fatalf("%s: flatTree form decoded to another tree", name)
		}
	}
}

// TestPreorderDecodeRejectsCorrupt covers the inputs GobEncode cannot
// write: every truncation, trailing bytes, lengths declared past the
// input, spans past maxSplitCard, child values outside the span or out of
// order, node counts the links do not reach, and totals the nodes do not
// add up to. A header declaring a huge node count over a few bytes, or
// maxSplitCard span slots for each of 50 empty nodes, is rejected before
// anything of that size is allocated.
func TestPreorderDecodeRejectsCorrupt(t *testing.T) {
	good := encodeTree(t, fittedTree(t))
	for cut := 0; cut < len(good); cut++ {
		var tr Tree
		if err := tr.GobDecode(good[:cut]); err == nil {
			t.Fatalf("truncation at %d of %d bytes accepted", cut, len(good))
		}
	}
	// enc writes a zero byte, target 0 and classes 1, the node count and
	// the count and span totals, then the node fields as uvarints; node
	// writes one node with a one-entry histogram.
	enc := func(nodes, counts, spans uint64, body ...[]uint64) []byte {
		b := []byte{0, 0, 2}
		for _, f := range []uint64{nodes, counts, spans} {
			b = binary.AppendUvarint(b, f)
		}
		for _, part := range body {
			for _, f := range part {
				b = binary.AppendUvarint(b, f)
			}
		}
		return b
	}
	node := func(span, kids uint64) []uint64 { return []uint64{1, 1, 1, span, kids} } // attr -1, counts [-1]
	leaf := node(0, 0)
	v := func(val uint64) []uint64 { return []uint64{val} }
	cases := map[string][]byte{
		"trailing byte":            append(append([]byte(nil), good...), 0),
		"node count past input":    enc(1<<40, 0, 0),
		"huge node count":          enc(1<<20, 1, 0, leaf),
		"count total past input":   enc(1, 1<<30, 0, leaf),
		"span total past bound":    enc(1, 1, maxSplitCard+1, leaf),
		"counts past total":        enc(1, 0, 0, leaf),
		"counts short of total":    enc(1, 2, 0, leaf),
		"span past total":          enc(2, 2, 1, node(2, 1), v(0), leaf),
		"span short of total":      enc(1, 1, 3, leaf),
		"child value past span":    enc(2, 2, 2, node(2, 1), v(2), leaf),
		"repeated child value":     enc(3, 3, 2, node(2, 2), v(1), leaf, v(1), leaf),
		"descending child values":  enc(3, 3, 2, node(2, 2), v(1), leaf, v(0), leaf),
		"more nodes than linked":   enc(2, 2, 0, leaf, v(0), leaf),
		"fewer nodes than linked":  enc(2, 2, 2, node(2, 2), v(0), leaf),
		"more children than span":  enc(4, 4, 2, node(2, 3), v(0), leaf, v(1), leaf, v(2), leaf),
		"kids past input":          enc(1, 1, 2, node(2, 1<<40)),
		"span past maxSplitCard":   enc(2, 2, 2*maxSplitCard, node(maxSplitCard+1, 1), v(0), leaf),
		"span total over no nodes": append(enc(50, 0, 50*maxSplitCard), make([]byte, 4*50)...),
		"no root but trailing":     enc(0, 0, 0, v(0)),
		"overlong varint in count": append(enc(1, 1, 0, v(1)), 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01),
	}
	for name, data := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var tr Tree
		err := tr.GobDecode(data)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: corrupt encoding decoded without error", name)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 4<<10 {
			t.Errorf("%s: rejecting %d bytes allocated %d bytes", name, len(data), got)
		}
	}
	// The well-formed neighbour of these encodings still decodes.
	var tr Tree
	if err := tr.GobDecode(enc(3, 3, 2, node(2, 2), v(0), leaf, v(1), leaf)); err != nil {
		t.Fatalf("well-formed encoding: %v", err)
	}
	if tr.Size() != 3 || tr.Classes != 1 || tr.Root.Counts[0] != -1 {
		t.Fatalf("decoded %d nodes, %d classes, root counts %v", tr.Size(), tr.Classes, tr.Root.Counts)
	}
}

// TestMain caps the fuzz engine's minimisation of each new input at one
// second unless -test.fuzzminimizetime is given. FuzzTreeGobDecode's
// flatTree inputs are a kilobyte of gob and the byte-subset pass of
// minimisation is quadratic in input length, so at the 60 s default the
// exec count stands still for seconds at a time.
func TestMain(m *testing.M) {
	flag.Parse()
	set := false
	flag.Visit(func(f *flag.Flag) { set = set || f.Name == "test.fuzzminimizetime" })
	if !set {
		if err := flag.Set("test.fuzzminimizetime", "1s"); err != nil {
			panic(err)
		}
	}
	os.Exit(m.Run())
}

// FuzzTreeGobDecode feeds arbitrary bytes to Tree.GobDecode, the decoder
// of every C4.5 tree in a bundle, in both of its forms. It must never
// panic, and an accepted input must round-trip: GobEncode of the decoded
// tree decodes to the same tree. Seeds: the preorder form of a fitted
// tree, of a rootless one and of a leaf, truncations of the first, and
// the flatTree gob that earlier builds wrote for the fitted tree.
func FuzzTreeGobDecode(f *testing.F) {
	fitted := fittedTree(f)
	data := encodeTree(f, fitted)
	f.Add(data)
	for _, cut := range []int{1, 4, len(data) / 2, len(data) - 1} {
		f.Add(data[:cut])
	}
	f.Add(encodeTree(f, &Tree{Target: 1, Classes: 2}))
	f.Add(encodeTree(f, &Tree{Classes: 2, Root: &Node{Attr: -1, Counts: []int{3, 4}}}))
	var flat bytes.Buffer
	if err := gob.NewEncoder(&flat).Encode(flatten(fitted)); err != nil {
		f.Fatal(err)
	}
	f.Add(flat.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		var tr Tree
		if err := tr.GobDecode(data); err != nil {
			return
		}
		enc, err := tr.GobEncode()
		if err != nil {
			t.Fatal(err)
		}
		var back Tree
		if err := back.GobDecode(enc); err != nil {
			t.Fatalf("re-encoded tree rejected: %v", err)
		}
		if !sameTree(&tr, &back) {
			t.Fatal("tree changed in a round trip")
		}
	})
}

// flatten writes t in the flatTree form earlier builds' GobEncode wrote:
// nodes in preorder, each listing its children's values and indices.
func flatten(t *Tree) flatTree {
	ft := flatTree{Target: t.Target, Classes: t.Classes}
	var walk func(n *Node) int32
	walk = func(n *Node) int32 {
		idx := int32(len(ft.Nodes))
		ft.Nodes = append(ft.Nodes, flatNode{Attr: n.Attr, Counts: n.Counts, Card: int32(len(n.Children))})
		for v, ch := range n.Children {
			if ch != nil {
				ci := walk(ch)
				ft.Nodes[idx].ChildVal = append(ft.Nodes[idx].ChildVal, int32(v))
				ft.Nodes[idx].ChildIdx = append(ft.Nodes[idx].ChildIdx, ci)
			}
		}
		return idx
	}
	if t.Root != nil {
		walk(t.Root)
	}
	return ft
}
