package obs

import (
	"strings"
	"testing"
	"time"
)

// fakeClock drives a tracer deterministically.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time { return c.t }
func (c *fakeClock) advance(d time.Duration) {
	c.t = c.t.Add(d)
}

func newFakeTracer() (*Tracer, *fakeClock) {
	c := &fakeClock{t: time.Unix(1000, 0)}
	return &Tracer{now: c.now}, c
}

func TestSpanNesting(t *testing.T) {
	tr, clk := newFakeTracer()
	root := tr.Start("run")
	clk.advance(10 * time.Millisecond)
	child := root.Start("train")
	clk.advance(30 * time.Millisecond)
	child.End()
	clk.advance(5 * time.Millisecond)
	root.End()

	if got := root.Wall(); got != 45*time.Millisecond {
		t.Errorf("root wall = %v, want 45ms", got)
	}
	if got := child.Wall(); got != 30*time.Millisecond {
		t.Errorf("child wall = %v, want 30ms", got)
	}
	kids := root.Children()
	if len(kids) != 1 || kids[0].Name() != "train" {
		t.Errorf("children = %v", kids)
	}
	// Double End is a no-op.
	clk.advance(time.Hour)
	root.End()
	if got := root.Wall(); got != 45*time.Millisecond {
		t.Errorf("End not idempotent: wall = %v", got)
	}
	tt := child.Timing()
	if tt.Name != "train" || tt.WallSeconds != 0.03 {
		t.Errorf("timing = %+v", tt)
	}
}

func TestWriteTree(t *testing.T) {
	tr, clk := newFakeTracer()
	root := tr.Start("run")
	c := root.Start("simulate")
	clk.advance(20 * time.Millisecond)
	c.End()
	root.End()
	var sb strings.Builder
	if err := tr.WriteTree(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "run") || !strings.Contains(out, "simulate") {
		t.Errorf("tree output missing spans:\n%s", out)
	}
	if !strings.Contains(out, "20.000ms") {
		t.Errorf("tree output missing child duration:\n%s", out)
	}
}

func TestWriteTreeEmpty(t *testing.T) {
	tr := NewTracer()
	var sb strings.Builder
	tr.WriteTree(&sb)
	if !strings.Contains(sb.String(), "no spans") {
		t.Errorf("empty tree output = %q", sb.String())
	}
}

// TestSpanConcurrentChildren exercises concurrent child creation — the
// pattern the experiment engine uses (one child span per experiment on
// worker goroutines).
func TestSpanConcurrentChildren(t *testing.T) {
	tr := NewTracer()
	root := tr.Start("run")
	done := make(chan struct{})
	const n = 32
	for i := 0; i < n; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			s := root.Start("child")
			s.End()
		}()
	}
	for i := 0; i < n; i++ {
		<-done
	}
	root.End()
	if got := len(root.Children()); got != n {
		t.Errorf("children = %d, want %d", got, n)
	}
}
