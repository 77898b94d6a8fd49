package main

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"crossfeature/internal/serve"
)

// workload is one named input mix the benchmark runs. Exactly one of
// serve and offline is set.
type workload struct {
	name    string
	serve   *serveShape
	offline string // "figure1" or "train"
	// skips names, by prefix, the per-layer metrics of layers the
	// workload's path never enters: a traced run reports them as 0 and
	// must measure every other one.
	skips []string
}

func (w workload) idle(metric string) bool {
	for _, p := range w.skips {
		if strings.HasPrefix(metric, p) {
			return true
		}
	}
	return false
}

var (
	// The serve workloads neither simulate, fit, train nor calibrate.
	serveSkips = []string{"features.extract_s", "features.fit_s", "core.train_",
		"core.score_all_s.", "core.calibrate_ms", "ml.", "netsim.", "eval."}
	// Neither offline workload serves: no server, HTTP, generator, bundle
	// or per-stream detector.
	offlineSkips = []string{"serve.", "http.", "loadgen.", "p99_ms", "capacity_rec_s",
		"core.score_events_us_per_rec", "core.observe_ns_per_rec", "core.new_detector_ns", "core.bundle_load_ms"}
)

// serveShape is a traffic mix against a live `cfa serve`.
type serveShape struct {
	learner string        // bundle's base learner
	path    string        // endpoint
	items   int           // stream items per request
	records int           // records per item
	streams int           // distinct stream ids; the body rotation has as many bodies
	nominal float64       // offered records/s at the fixed-rate point
	ladder  float64       // offered records/s of the capacity ladder's first rung
	limit   time.Duration // p99 latency limit a capacity rung must meet
}

func (sh *serveShape) recordsPerRequest() int { return sh.items * sh.records }

// batch reports whether bodies are /v1/score-batch requests rather than
// single-stream /v1/score ones.
func (sh *serveShape) batch() bool { return sh.path == "/v1/score-batch" }

// The serve shapes stress opposite ends of the request path. serve-batch
// is the collector shape: fat JSON bodies over a small, always-resident
// set of streams, so body decode and the columnar batch kernel dominate
// and the stream table only ever hits. serve-record is the per-node
// shape: one record per request cycling 4096 stream ids through the
// default 1024-entry table, so every request is a cold start plus an LRU
// eviction scored by the row-major kernel, and decode is a small share.
//
// The nominal rates are about a fifth of the capacity a shared 2-vCPU VM
// sustains in its fast phases and two fifths in its slow ones, which run
// every CPU cost up to twice as high for minutes at a time: at twice these
// rates a slow phase pushes the point into queueing and its median moves
// far more than the server's own cost. The ladder starts at twice the
// nominal rate, which its ×1.25 steps carry past capacity within five
// rungs in either phase (README.md has the measurements).
var workloads = []workload{
	{name: "serve-batch", serve: &serveShape{
		learner: "C4.5", path: "/v1/score-batch", items: 16, records: 8,
		streams: 64, nominal: 10000, ladder: 20000, limit: 50 * time.Millisecond,
	}, skips: serveSkips},
	{name: "serve-record", serve: &serveShape{
		learner: "NBC", path: "/v1/score", items: 1, records: 1,
		streams: 4096, nominal: 1000, ladder: 2000, limit: 10 * time.Millisecond,
	}, skips: serveSkips},
	{name: "offline-figure1", offline: "figure1",
		skips: append([]string{"core.calibrate_ms"}, offlineSkips...)},
	{name: "offline-train", offline: "train",
		skips: append([]string{"features.", "netsim.", "eval."}, offlineSkips...)},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// requests builds the body rotation from the record pool: item g of the
// rotation goes to stream g mod streams and carries the next records of
// the pool, cycling. It returns each body's items (for the reference) and
// its marshalled bytes (sent as-is, so no encoding runs on the clock).
func (sh *serveShape) requests(pool []serve.Record) ([][]serve.ScoreRequest, [][]byte, error) {
	reqs := make([][]serve.ScoreRequest, sh.streams)
	bodies := make([][]byte, sh.streams)
	for b := range reqs {
		items := make([]serve.ScoreRequest, sh.items)
		for j := range items {
			g := b*sh.items + j
			items[j].Stream = fmt.Sprintf("node-%04d", g%sh.streams)
			for r := 0; r < sh.records; r++ {
				items[j].Records = append(items[j].Records, pool[(g*sh.records+r)%len(pool)])
			}
		}
		var v any = items[0]
		if sh.batch() {
			v = serve.BatchScoreRequest{Items: items}
		}
		body, err := json.Marshal(v)
		if err != nil {
			return nil, nil, err
		}
		reqs[b], bodies[b] = items, body
	}
	return reqs, bodies, nil
}
