// Package obs is the repo's unified observability layer: a zero-dependency
// metrics registry (counters, gauges, fixed-bucket histograms) with a
// Prometheus text-format encoder, lightweight span tracing for pipeline
// stage timings, and an opt-in debug HTTP surface exposing /metrics and
// net/http/pprof.
//
// Design rules:
//
//   - Hot-path operations (Counter.Inc/Add, Gauge.Set/Add,
//     Histogram.Observe) are single atomic operations: no locks, no
//     allocations, safe from any goroutine. The registry mutex is touched
//     only at registration and snapshot time.
//   - Metric values are dumb atomics decoupled from naming: a Counter can
//     live standalone (NewCounter) inside a subsystem, and the Registry
//     only binds names, help strings and label sets to instances. /statz
//     style JSON surfaces and /metrics read the same underlying values,
//     so there is exactly one source of truth per signal.
//   - Label sets are fixed at registration (constant labels). Keep
//     cardinality bounded: label values must come from small closed sets
//     (feature names, packet classes, verdicts) — never stream ids,
//     addresses or timestamps.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing uint64. The zero value is unusable;
// construct with NewCounter or Registry.Counter.
type Counter struct {
	v atomic.Uint64
}

// NewCounter returns a standalone counter (attach it to a Registry later
// via Registry.Counter semantics by constructing through the registry, or
// leave it unregistered for internal bookkeeping).
func NewCounter() *Counter { return &Counter{} }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value reads the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous float64 value.
type Gauge struct {
	bits atomic.Uint64
}

// NewGauge returns a standalone gauge.
func NewGauge() *Gauge { return &Gauge{} }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta with a CAS loop.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value reads the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket histogram. Buckets are defined by their
// upper bounds (sorted ascending); an implicit +Inf bucket catches the
// rest. Observe is lock-free: one atomic add on the bucket, one on the
// count-carrying sum.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Uint64 // len(bounds)+1; last is +Inf
	sumBits atomic.Uint64
	// exemplars holds the most recent traced sample per bucket (same
	// indexing as buckets). Slots stay nil until SetExemplar runs, so
	// untraced histograms pay only the slice of nil pointers.
	exemplars []atomic.Pointer[Exemplar]
}

// Exemplar links one histogram bucket to the trace that most recently
// landed in it — the bridge from a fat p99 bucket to a replayable
// per-hop timeline in the flight recorder. Bucket is the bucket's upper
// bound rendered as in the exposition format ("+Inf" for the overflow
// bucket), because JSON cannot carry infinities.
type Exemplar struct {
	Bucket      string  `json:"bucket"`
	Value       float64 `json:"value"`
	TraceID     string  `json:"trace_id"`
	AtUnixNanos int64   `json:"at_unix_nanos"`
}

// NewHistogram returns a standalone histogram over the given upper bounds.
// Bounds must be sorted strictly ascending and finite.
func NewHistogram(bounds []float64) *Histogram {
	for i, b := range bounds {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			panic(fmt.Sprintf("obs: histogram bound %v is not finite", b))
		}
		if i > 0 && bounds[i-1] >= b {
			panic(fmt.Sprintf("obs: histogram bounds not ascending at %v", b))
		}
	}
	return &Histogram{
		bounds:    append([]float64(nil), bounds...),
		buckets:   make([]atomic.Uint64, len(bounds)+1),
		exemplars: make([]atomic.Pointer[Exemplar], len(bounds)+1),
	}
}

// bucketIndex returns the bucket index for v (len(bounds) = +Inf).
func (h *Histogram) bucketIndex(v float64) int {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	return i
}

// Observe records one value. NaN observations are dropped (they would
// poison the sum and match no bucket).
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	h.buckets[h.bucketIndex(v)].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveWithExemplar records v and, when traceID is non-empty, remembers
// it as the bucket's most recent exemplar. One allocation per call — use
// it for per-request signals (latency), not per-record inner loops;
// per-record paths should Observe normally and SetExemplar once.
func (h *Histogram) ObserveWithExemplar(v float64, traceID string) {
	h.Observe(v)
	h.SetExemplar(v, traceID)
}

// SetExemplar links traceID to the bucket v falls in without counting an
// observation (the observation happened separately). Empty trace ids and
// NaN values are ignored.
func (h *Histogram) SetExemplar(v float64, traceID string) {
	if traceID == "" || math.IsNaN(v) {
		return
	}
	h.exemplars[h.bucketIndex(v)].Store(&Exemplar{
		Value:       v,
		TraceID:     traceID,
		AtUnixNanos: time.Now().UnixNano(),
	})
}

// Exemplars returns the live per-bucket exemplars, bucket-labelled and
// ordered by bucket. Buckets that never saw a traced sample are omitted.
func (h *Histogram) Exemplars() []Exemplar {
	var out []Exemplar
	for i := range h.exemplars {
		e := h.exemplars[i].Load()
		if e == nil {
			continue
		}
		ex := *e
		if i < len(h.bounds) {
			ex.Bucket = formatFloat(h.bounds[i])
		} else {
			ex.Bucket = "+Inf"
		}
		out = append(out, ex)
	}
	return out
}

// HistogramPoint is a histogram's state at snapshot time. Counts are
// cumulative per Prometheus convention and Count is derived from the same
// bucket reads, so the +Inf bucket always equals Count.
type HistogramPoint struct {
	Bounds     []float64 `json:"bounds"` // upper bounds, excluding +Inf
	Cumulative []uint64  `json:"cumulative"`
	Sum        float64   `json:"sum"`
	Count      uint64    `json:"count"`
}

// Quantile estimates the q-quantile (q in [0,1]) from the bucket counts
// by linear interpolation within the bucket holding the target rank — the
// same estimate Prometheus's histogram_quantile computes. Returns NaN on
// an empty histogram. The last finite bound caps the estimate: a rank
// landing in the +Inf bucket reports that bound, which understates true
// tail latency but never invents a number.
func (p HistogramPoint) Quantile(q float64) float64 {
	if p.Count == 0 || len(p.Bounds) == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(p.Count)
	for i, c := range p.Cumulative {
		if i >= len(p.Bounds) {
			break
		}
		if float64(c) >= rank {
			lo, loCount := 0.0, uint64(0)
			if i > 0 {
				lo, loCount = p.Bounds[i-1], p.Cumulative[i-1]
			}
			width := float64(c - loCount)
			if width == 0 {
				return p.Bounds[i]
			}
			return lo + (p.Bounds[i]-lo)*(rank-float64(loCount))/width
		}
	}
	return p.Bounds[len(p.Bounds)-1]
}

// SnapshotPoint exposes the histogram's current state; benchmarks and
// tests use it to derive quantiles without scraping the text encoding.
func (h *Histogram) SnapshotPoint() HistogramPoint { return h.snapshot() }

// snapshot reads a consistent-enough view: buckets first, count derived
// from them, so the encoder's invariants hold even mid-update.
func (h *Histogram) snapshot() HistogramPoint {
	p := HistogramPoint{
		Bounds:     h.bounds,
		Cumulative: make([]uint64, len(h.buckets)),
	}
	var running uint64
	for i := range h.buckets {
		running += h.buckets[i].Load()
		p.Cumulative[i] = running
	}
	p.Count = running
	p.Sum = math.Float64frombits(h.sumBits.Load())
	return p
}

// Sum returns the sum of observations so far.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Count returns the number of observations so far.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// LinearBuckets returns count bounds start, start+width, ...
func LinearBuckets(start, width float64, count int) []float64 {
	out := make([]float64, count)
	for i := range out {
		out[i] = start + width*float64(i)
	}
	return out
}

// ExpBuckets returns count bounds start, start*factor, ...
func ExpBuckets(start, factor float64, count int) []float64 {
	out := make([]float64, count)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Label is one constant name=value pair attached to a metric instance.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// L is shorthand for Label{Key: k, Value: v}.
func L(k, v string) Label { return Label{Key: k, Value: v} }

// Kind discriminates metric families.
type Kind int

const (
	// KindCounter is a monotonically increasing value.
	KindCounter Kind = iota + 1
	// KindGauge is an instantaneous value.
	KindGauge
	// KindHistogram is a fixed-bucket distribution.
	KindHistogram
)

// String implements fmt.Stringer (Prometheus TYPE names).
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// instance is one labelled member of a family.
type instance struct {
	labels []Label
	c      *Counter
	g      *Gauge
	gf     func() float64
	h      *Histogram
}

// family groups all instances sharing a metric name.
type family struct {
	name   string
	help   string
	kind   Kind
	bounds []float64
	insts  []*instance
	byKey  map[string]*instance
}

// Registry binds names to metric instances and encodes snapshots. All
// methods are safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// labelKey builds the map key for a label set (order-sensitive by design:
// register each family with a consistent label order).
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var sb strings.Builder
	for _, l := range labels {
		sb.WriteString(l.Key)
		sb.WriteByte(1)
		sb.WriteString(l.Value)
		sb.WriteByte(2)
	}
	return sb.String()
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || r == '_' || r == ':'
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// lookup finds or creates the family and instance slot for (name, labels),
// enforcing kind (and bound) consistency. mk builds the value on first
// registration.
func (r *Registry) lookup(name, help string, kind Kind, bounds []float64, labels []Label, mk func() *instance) *instance {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName(l.Key) {
			panic(fmt.Sprintf("obs: invalid label name %q on %s", l.Key, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, bounds: append([]float64(nil), bounds...), byKey: make(map[string]*instance)}
		r.families[name] = f
		r.order = append(r.order, name)
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q re-registered as %v (was %v)", name, kind, f.kind))
	}
	if kind == KindHistogram && !equalBounds(f.bounds, bounds) {
		panic(fmt.Sprintf("obs: histogram %q re-registered with different buckets", name))
	}
	key := labelKey(labels)
	if inst, ok := f.byKey[key]; ok {
		return inst
	}
	inst := mk()
	inst.labels = append([]Label(nil), labels...)
	f.byKey[key] = inst
	f.insts = append(f.insts, inst)
	return inst
}

func equalBounds(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Counter returns the registered counter for (name, labels), creating it
// on first use. Repeated calls with the same name and labels return the
// same instance.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.lookup(name, help, KindCounter, nil, labels, func() *instance {
		return &instance{c: NewCounter()}
	}).c
}

// Gauge returns the registered gauge for (name, labels).
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.lookup(name, help, KindGauge, nil, labels, func() *instance {
		return &instance{g: NewGauge()}
	}).g
}

// GaugeFunc registers a gauge whose value is read from fn at snapshot
// time — for values that already live elsewhere (queue depths, table
// sizes, uptime). fn must be safe for concurrent use.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.lookup(name, help, KindGauge, nil, labels, func() *instance {
		return &instance{gf: fn}
	})
}

// Histogram returns the registered histogram for (name, labels) over the
// given upper bounds. Every instance of one family must share bounds.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	return r.lookup(name, help, KindHistogram, bounds, labels, func() *instance {
		return &instance{h: NewHistogram(bounds)}
	}).h
}

// MetricPoint is one instance's value at snapshot time.
type MetricPoint struct {
	Name      string          `json:"name"`
	Help      string          `json:"help,omitempty"`
	Kind      string          `json:"kind"`
	Labels    []Label         `json:"labels,omitempty"`
	Value     float64         `json:"value"`
	Histogram *HistogramPoint `json:"histogram,omitempty"`
}

// Snapshot captures every registered metric. Families come out sorted by
// name, instances in registration order, so output is deterministic.
func (r *Registry) Snapshot() []MetricPoint {
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		fams = append(fams, r.families[n])
	}
	// Copy instance lists under the lock; values are read outside it
	// (atomics and gauge funcs need no registry lock).
	type famSnap struct {
		f     *family
		insts []*instance
	}
	snaps := make([]famSnap, len(fams))
	for i, f := range fams {
		snaps[i] = famSnap{f: f, insts: append([]*instance(nil), f.insts...)}
	}
	r.mu.Unlock()

	var out []MetricPoint
	for _, fs := range snaps {
		for _, inst := range fs.insts {
			p := MetricPoint{Name: fs.f.name, Help: fs.f.help, Kind: fs.f.kind.String(), Labels: inst.labels}
			switch {
			case inst.c != nil:
				p.Value = float64(inst.c.Value())
			case inst.g != nil:
				p.Value = inst.g.Value()
			case inst.gf != nil:
				p.Value = inst.gf()
			case inst.h != nil:
				hp := inst.h.snapshot()
				p.Histogram = &hp
			}
			out = append(out, p)
		}
	}
	return out
}

// WritePrometheus encodes the current state in Prometheus text exposition
// format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error {
	return EncodePrometheus(w, r.Snapshot())
}

// EncodePrometheus writes metric points (as produced by Snapshot, i.e.
// grouped by family) in Prometheus text format.
func EncodePrometheus(w io.Writer, points []MetricPoint) error {
	var sb strings.Builder
	last := ""
	for _, p := range points {
		if p.Name != last {
			if last != "" {
				sb.WriteByte('\n')
			}
			if p.Help != "" {
				sb.WriteString("# HELP ")
				sb.WriteString(p.Name)
				sb.WriteByte(' ')
				sb.WriteString(escapeHelp(p.Help))
				sb.WriteByte('\n')
			}
			sb.WriteString("# TYPE ")
			sb.WriteString(p.Name)
			sb.WriteByte(' ')
			sb.WriteString(p.Kind)
			sb.WriteByte('\n')
			last = p.Name
		}
		if p.Histogram == nil {
			sb.WriteString(p.Name)
			writeLabels(&sb, p.Labels, "")
			sb.WriteByte(' ')
			sb.WriteString(formatFloat(p.Value))
			sb.WriteByte('\n')
			continue
		}
		h := p.Histogram
		for i, cum := range h.Cumulative {
			le := "+Inf"
			if i < len(h.Bounds) {
				le = formatFloat(h.Bounds[i])
			}
			sb.WriteString(p.Name)
			sb.WriteString("_bucket")
			writeLabels(&sb, p.Labels, le)
			sb.WriteByte(' ')
			sb.WriteString(strconv.FormatUint(cum, 10))
			sb.WriteByte('\n')
		}
		sb.WriteString(p.Name)
		sb.WriteString("_sum")
		writeLabels(&sb, p.Labels, "")
		sb.WriteByte(' ')
		sb.WriteString(formatFloat(h.Sum))
		sb.WriteByte('\n')
		sb.WriteString(p.Name)
		sb.WriteString("_count")
		writeLabels(&sb, p.Labels, "")
		sb.WriteByte(' ')
		sb.WriteString(strconv.FormatUint(h.Count, 10))
		sb.WriteByte('\n')
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// writeLabels renders {k="v",...}, appending le last when non-empty.
func writeLabels(sb *strings.Builder, labels []Label, le string) {
	if len(labels) == 0 && le == "" {
		return
	}
	sb.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Key)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(l.Value))
		sb.WriteByte('"')
	}
	if le != "" {
		if len(labels) > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(`le="`)
		sb.WriteString(le)
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
}

// escapeLabel escapes a label value per the exposition format: backslash,
// double quote and newline.
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

// escapeHelp escapes a help string: backslash and newline only.
func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}

// formatFloat renders a sample value: integers without exponent, +Inf/-Inf
// per the exposition format.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
