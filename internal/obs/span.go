package obs

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// Tracer records a forest of nested timing spans — the per-run "where did
// the time go" tree for pipeline stages (simulate, discretise, train,
// score, save/load). Spans are cheap (one clock read at each end) but not
// free; put them around stages, not around per-event hot paths.
type Tracer struct {
	mu    sync.Mutex
	roots []*Span

	// now is injectable for deterministic tests; defaults to time.Now.
	now func() time.Time
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer {
	return &Tracer{now: time.Now}
}

// Start opens a top-level span.
func (t *Tracer) Start(name string) *Span {
	s := &Span{tracer: t, name: name, start: t.now(), cpuStart: processCPU()}
	t.mu.Lock()
	t.roots = append(t.roots, s)
	t.mu.Unlock()
	return s
}

// Roots returns the top-level spans recorded so far.
func (t *Tracer) Roots() []*Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*Span(nil), t.roots...)
}

// Span is one timed region. Spans may be ended exactly once; children may
// be started from any goroutine.
type Span struct {
	tracer   *Tracer
	name     string
	start    time.Time
	cpuStart time.Duration

	mu       sync.Mutex
	end      time.Time
	cpuEnd   time.Duration
	ended    bool
	children []*Span
}

// Start opens a child span.
func (s *Span) Start(name string) *Span {
	c := &Span{tracer: s.tracer, name: name, start: s.tracer.now(), cpuStart: processCPU()}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// End closes the span. Ending twice is a no-op.
func (s *Span) End() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return
	}
	s.ended = true
	s.end = s.tracer.now()
	s.cpuEnd = processCPU()
}

// Name returns the span's name.
func (s *Span) Name() string { return s.name }

// Wall returns the wall-clock duration (time so far if still open).
func (s *Span) Wall() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ended {
		return s.tracer.now().Sub(s.start)
	}
	return s.end.Sub(s.start)
}

// CPU returns the process CPU time consumed between span start and end.
// This is process-wide (user+system), so it is meaningful for serial
// stages and an upper bound for concurrent ones; zero on platforms
// without rusage.
func (s *Span) CPU() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ended {
		return processCPU() - s.cpuStart
	}
	return s.cpuEnd - s.cpuStart
}

// Ended reports whether End has been called.
func (s *Span) Ended() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ended
}

// Children returns the child spans in start order.
func (s *Span) Children() []*Span {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Span(nil), s.children...)
}

// WriteTree renders the span forest as an indented timing tree:
//
//	run                      1.20s  (cpu 3.4s)
//	  simulate:AODV/UDP      0.80s  (cpu 2.9s)
func (t *Tracer) WriteTree(w io.Writer) error {
	var sb strings.Builder
	for _, root := range t.Roots() {
		writeSpanTree(&sb, root, 0)
	}
	if sb.Len() == 0 {
		sb.WriteString("(no spans recorded)\n")
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

func writeSpanTree(sb *strings.Builder, s *Span, depth int) {
	for i := 0; i < depth; i++ {
		sb.WriteString("  ")
	}
	open := ""
	if !s.Ended() {
		open = " (open)"
	}
	fmt.Fprintf(sb, "%-*s %10.3fms  cpu %.3fms%s\n",
		48-2*depth, s.name, float64(s.Wall().Microseconds())/1000,
		float64(s.CPU().Microseconds())/1000, open)
	for _, c := range s.Children() {
		writeSpanTree(sb, c, depth+1)
	}
}

// StageTiming is the flat (name, wall, cpu) record the run manifest
// stores per pipeline stage.
type StageTiming struct {
	Name        string  `json:"name"`
	WallSeconds float64 `json:"wall_seconds"`
	CPUSeconds  float64 `json:"cpu_seconds"`
}

// Timing flattens a span into a StageTiming.
func (s *Span) Timing() StageTiming {
	return StageTiming{
		Name:        s.name,
		WallSeconds: s.Wall().Seconds(),
		CPUSeconds:  s.CPU().Seconds(),
	}
}
