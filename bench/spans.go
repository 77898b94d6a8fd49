package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary, recorded from outside
// the program around a call into it (or, for serve hops, read back from
// the server's flight recorder). Times are offsets from the recorder's
// epoch; spans of one request or iteration share Run.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent,omitempty"`
	Run    string        `json:"run"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// recorder holds spans in memory until the run ends; nothing is written
// while the benchmark measures. A nil recorder records nothing, so one
// pipeline serves traced and untraced iterations alike.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// since is the recorder-relative time of t.
func (r *recorder) since(t time.Time) time.Duration { return t.Sub(r.epoch) }

// add records a finished span and returns its id (for children).
func (r *recorder) add(run, name string, parent int, start, end time.Duration) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Run: run, Name: name, Start: start, End: end})
	return id
}

// begin opens a span now and returns its id, reserved so children can
// name it as their parent; end closes it.
func (r *recorder) begin(run, name string, parent int) int {
	if r == nil {
		return 0
	}
	now := r.since(time.Now())
	return r.add(run, name, parent, now, now)
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := r.since(time.Now())
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// time runs f inside a span named name and returns f's error.
func (r *recorder) time(run, name string, parent int, f func() error) error {
	id := r.begin(run, name, parent)
	err := f()
	r.end(id)
	return err
}

// total sums the durations of every span named name, and counts them.
func (r *recorder) total(name string) (time.Duration, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var sum time.Duration
	n := 0
	for _, s := range r.spans {
		if s.Name == name {
			sum += s.End - s.Start
			n++
		}
	}
	return sum, n
}

// topLevel sums the durations of spans without a parent: the phases.
func (r *recorder) topLevel() time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	var sum time.Duration
	for _, s := range r.spans {
		if s.Parent == 0 {
			sum += s.End - s.Start
		}
	}
	return sum
}

// seconds is the summed duration of spans named name, in seconds.
func (r *recorder) seconds(name string) float64 {
	d, _ := r.total(name)
	return d.Seconds()
}

// meanMicros is the mean duration of spans named name, in microseconds
// (0 when there are none).
func (r *recorder) meanMicros(name string) float64 {
	sum, n := r.total(name)
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n) / float64(time.Microsecond)
}

// write dumps every span as JSON to path.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
