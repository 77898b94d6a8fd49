// Package serve is the hardened streaming scoring service behind `cfa
// serve`: it loads a trained model bundle and scores audit records posted
// over HTTP, keeping one core.OnlineDetector per client stream.
//
// Robustness is the feature set, in the spirit of the paper's "run the
// detector on live nodes" deployment story:
//
//   - a bounded, deadline-aware admission queue sheds overload with an
//     explicit 429 instead of unbounded latency;
//   - every request runs under panic recovery and a hard deadline, and
//     slow or stalled clients are bounded by a body read deadline;
//   - the model hot-reloads atomically — a new file is fully validated
//     (versioned header, CRC, decode, structural checks) before a single
//     pointer swap, and a corrupt or truncated file leaves the old model
//     serving with the failure surfaced in /readyz;
//   - SIGTERM (a cancelled Run context) drains: in-flight requests
//     finish, new connections stop, goroutines exit;
//   - the per-stream detector table is LRU-bounded so hostile or churning
//     stream ids cannot grow memory without bound.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"crossfeature/internal/core"
	"crossfeature/internal/obs"
)

// Config tunes the service. Zero values take the documented defaults.
type Config struct {
	// ModelPath is the bundle written by `cfa train` (required). It is
	// also the path re-read on every reload.
	ModelPath string
	// MaxConcurrent bounds requests scoring at once; default GOMAXPROCS.
	MaxConcurrent int
	// MaxQueue bounds requests waiting for a slot beyond MaxConcurrent;
	// everything past it is shed with 429. Default 64.
	MaxQueue int
	// RequestTimeout is the per-request deadline covering queue wait, body
	// read and scoring. Default 5s.
	RequestTimeout time.Duration
	// DrainTimeout bounds the graceful shutdown; connections still open
	// after it are forcibly closed. Default 10s.
	DrainTimeout time.Duration
	// MaxStreams caps the LRU stream table. Default 1024.
	MaxStreams int
	// Shards is the stream-table shard count (rounded up to a power of
	// two); distinct streams on different shards never share a lock.
	// Default GOMAXPROCS.
	Shards int
	// MaxBodyBytes caps a score request body. Default 1 MiB.
	MaxBodyBytes int64
	// MaxBatchBodyBytes caps a /v1/score-batch request body; batches carry
	// orders of magnitude more records than a single-stream request.
	// Default 8 MiB.
	MaxBatchBodyBytes int64
	// MaxBatchRecords caps the records in one /v1/score-batch request
	// (413 beyond it). Default 4096.
	MaxBatchRecords int
	// MaxInFlightRequests caps score requests concurrently inside a
	// handler, counted from before the body decode. Record-level
	// admission only runs after the body is parsed; this earlier, cruder
	// gate keeps an open-loop storm from spending the whole CPU budget on
	// parsing bodies it would then shed. Default 16*(MaxConcurrent +
	// MaxQueue), floored at 256.
	MaxInFlightRequests int
	// MaxQueueRecords bounds the records admitted or queued across all
	// in-flight requests — the shed policy in units of scoring work, on
	// top of MaxQueue's bound in requests. Default 4*MaxBatchRecords.
	MaxQueueRecords int64
	// Smoothing, RaiseAfter and ClearAfter configure each stream's online
	// detector; zero values take the core defaults.
	Smoothing  float64
	RaiseAfter int
	ClearAfter int
	// CheckpointPath, when set, enables durable per-stream detector state:
	// the stream table is checkpointed here periodically, on clean
	// shutdown, and on POST /v1/checkpoint, and restored from here on
	// boot. Empty disables checkpointing.
	CheckpointPath string
	// CheckpointInterval is the periodic checkpoint cadence; default 15s
	// when CheckpointPath is set.
	CheckpointInterval time.Duration
	// CheckpointMaxAge bounds how old a checkpoint may be and still be
	// restored — EWMA state from hours ago describes traffic that no
	// longer exists, and resuming hysteresis mid-incident from stale data
	// would raise alarms about the past. Older files are skipped with a
	// counter. Default 1h; negative disables the age check.
	CheckpointMaxAge time.Duration
	// Logf sinks operational log lines; default log.Printf.
	Logf func(format string, args ...any)
	// Registry receives the service's operational metrics; nil builds a
	// private one. Pass a shared registry to expose the counters on a
	// debug listener's /metrics alongside other subsystems.
	Registry *obs.Registry
	// FeatureMetrics additionally records, for every scored record, which
	// sub-models matched and what probability they assigned — the
	// per-feature families cfa inspect-style tooling reads. Each record is
	// explained as well as scored, roughly doubling scoring cost, so this
	// is opt-in.
	FeatureMetrics bool
	// DisableAdaptiveOverload turns off the AIMD record-budget limiter and
	// brownout controller, leaving only the static admission bounds. The
	// adaptive controller is on by default: it only acts under sustained
	// overload, so an unloaded service behaves identically either way.
	DisableAdaptiveOverload bool
	// OverloadTarget is the projected queue-drain time (per-record EWMA
	// times record backlog over parallelism) past which a controller tick
	// counts the service as overloaded. Default RequestTimeout/5 — the
	// queue should clear well inside a request's deadline.
	OverloadTarget time.Duration
	// BrownoutTick is the overload-controller cadence. Default 100ms.
	BrownoutTick time.Duration
	// BrownoutEnterAfter and BrownoutExitAfter are the hysteresis dwells:
	// consecutive overloaded ticks before the brownout level rises, and
	// consecutive calm ticks before it falls. Exit is slower than entry so
	// the level does not flap at the saturation boundary. Defaults 3 and 10.
	BrownoutEnterAfter int
	BrownoutExitAfter  int

	// SLOLatency is the per-request latency bound the burn-rate monitor
	// scores goodput against — the same definition cfa loadgen reports
	// (records inside 200s faster than this are good; shed, timed-out and
	// errored records burn budget). Default 1s; negative disables the
	// monitor.
	SLOLatency time.Duration
	// SLOObjective is the availability objective (target good fraction)
	// the burn rate is normalised by. Default 0.99.
	SLOObjective float64
	// FlightTraceCap bounds the flight recorder's completed-trace ring
	// (events have their own equal-sized ring). Default 256.
	FlightTraceCap int
	// AccessLog, when set, receives one structured JSON line per sampled
	// request. Nil disables the access log.
	AccessLog io.Writer
	// AccessLogSample logs one request in this many (1 = every request).
	// Under brownout the effective stride is multiplied by 4 per level so
	// logging can never amplify overload. Default 1.
	AccessLogSample int

	// scoreHook, when set, runs inside the scoring handler after
	// admission. It exists for the chaos tests: blocking here simulates
	// slow scoring, panicking here exercises recovery.
	scoreHook func(stream string)
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 64
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 5 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	if c.MaxStreams <= 0 {
		c.MaxStreams = 1024
	}
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.MaxBatchBodyBytes <= 0 {
		c.MaxBatchBodyBytes = 8 << 20
	}
	if c.MaxBatchRecords <= 0 {
		c.MaxBatchRecords = 4096
	}
	if c.MaxQueueRecords <= 0 {
		c.MaxQueueRecords = 4 * int64(c.MaxBatchRecords)
	}
	if c.CheckpointInterval <= 0 {
		c.CheckpointInterval = 15 * time.Second
	}
	if c.OverloadTarget <= 0 {
		c.OverloadTarget = c.RequestTimeout / 5
	}
	if c.BrownoutTick <= 0 {
		c.BrownoutTick = 100 * time.Millisecond
	}
	if c.BrownoutEnterAfter <= 0 {
		c.BrownoutEnterAfter = 3
	}
	if c.BrownoutExitAfter <= 0 {
		c.BrownoutExitAfter = 10
	}
	if c.CheckpointMaxAge == 0 {
		c.CheckpointMaxAge = time.Hour
	}
	if c.SLOLatency == 0 {
		c.SLOLatency = time.Second
	}
	if c.SLOObjective <= 0 || c.SLOObjective >= 1 {
		c.SLOObjective = 0.99
	}
	if c.FlightTraceCap <= 0 {
		c.FlightTraceCap = 256
	}
	if c.AccessLogSample < 1 {
		c.AccessLogSample = 1
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	return c
}

// Record is one raw (pre-discretisation) audit vector.
type Record struct {
	Time   float64   `json:"time,omitempty"`
	Values []float64 `json:"values"`
}

// ScoreRequest scores a batch of records on one stream's detector.
type ScoreRequest struct {
	Stream  string   `json:"stream"`
	Records []Record `json:"records"`
}

// RecordResult is the detector state after one record. A non-finite raw
// score is reported as Score -1 with Invalid set (JSON cannot carry NaN);
// such records always count as anomalous.
type RecordResult struct {
	Time     float64 `json:"time,omitempty"`
	Score    float64 `json:"score"`
	Smoothed float64 `json:"smoothed"`
	Anomaly  bool    `json:"anomaly"`
	Alarm    bool    `json:"alarm"`
	Raised   bool    `json:"raised,omitempty"`
	Cleared  bool    `json:"cleared,omitempty"`
	Invalid  bool    `json:"invalid,omitempty"`
}

// ScoreResponse is the reply to a ScoreRequest. Degraded, when non-empty,
// names the brownout mode the verdicts were served under (it mirrors the
// X-CFA-Degraded header): "extras-off", with "+shed" appended at level 3.
// The scores themselves come from the bundle's analyzer at every level.
// Full-fidelity responses omit it.
type ScoreResponse struct {
	Stream       string         `json:"stream"`
	ModelVersion uint64         `json:"model_version"`
	Results      []RecordResult `json:"results"`
	Degraded     string         `json:"degraded,omitempty"`
}

// Readiness is the /readyz payload. Ready is false while draining and
// while the boot-time checkpoint restore is still in flight, so a load
// balancer holds traffic until stream state is as warm as it will get.
type Readiness struct {
	Ready            bool   `json:"ready"`
	Draining         bool   `json:"draining"`
	Restoring        bool   `json:"restoring"`
	ModelVersion     uint64 `json:"model_version"`
	ModelPath        string `json:"model_path"`
	Reloads          uint64 `json:"reloads"`
	ReloadFailures   uint64 `json:"reload_failures"`
	LastReloadError  string `json:"last_reload_error,omitempty"`
	LastRestoreError string `json:"last_restore_error,omitempty"`
}

// Stats is the /statz payload. It is a JSON projection of the same obs
// counters /metrics exposes — one source of truth, two encodings.
type Stats struct {
	Requests       uint64  `json:"requests"`
	BatchRequests  uint64  `json:"batch_requests"`
	RecordsScored  uint64  `json:"records_scored"`
	Shed           uint64  `json:"shed"`
	ShedRecords    uint64  `json:"shed_records"`
	QueueTimeouts  uint64  `json:"queue_timeouts"`
	BadRequests    uint64  `json:"bad_requests"`
	Panics         uint64  `json:"panics"`
	InvalidScores  uint64  `json:"invalid_scores"`
	QueueDepth     int64   `json:"queue_depth"`
	QueueHighWater int64   `json:"queue_high_water"`
	QueuedRecords  int64   `json:"queued_records"`
	Streams        int     `json:"streams"`
	Shards         int     `json:"stream_shards"`
	ShardLockWaits uint64  `json:"stream_shard_lock_waits"`
	Evictions      uint64  `json:"stream_evictions"`
	ModelVersion   uint64  `json:"model_version"`
	Reloads        uint64  `json:"reloads"`
	ReloadFailures uint64  `json:"reload_failures"`
	UptimeSeconds  float64 `json:"uptime_seconds"`
	GoVersion      string  `json:"go_version,omitempty"`
	BuildRevision  string  `json:"build_revision,omitempty"`

	// Crash-safety surfaces: the last reload/restore failure with its
	// timestamp (previously only visible in logs) and the checkpoint
	// counters.
	LastReloadError    string `json:"last_reload_error,omitempty"`
	LastReloadUnix     int64  `json:"last_reload_unix,omitempty"`
	LastRestoreError   string `json:"last_restore_error,omitempty"`
	LastRestoreUnix    int64  `json:"last_restore_unix,omitempty"`
	CheckpointWrites   uint64 `json:"checkpoint_writes"`
	CheckpointFailures uint64 `json:"checkpoint_write_failures"`
	CheckpointStreams  int    `json:"checkpoint_streams,omitempty"`
	CheckpointUnix     int64  `json:"checkpoint_unix,omitempty"`
	StreamsRestored    uint64 `json:"streams_restored"`
	StreamColdStarts   uint64 `json:"stream_cold_starts"`
	Restoring          bool   `json:"restoring,omitempty"`

	// Overload-control surfaces: the live brownout level and adaptive
	// record budget, plus the controller's counters.
	InflightRequests    int64  `json:"inflight_requests"`
	InflightShed        uint64 `json:"inflight_shed"`
	BrownoutLevel       int    `json:"brownout_level"`
	BrownoutTransitions uint64 `json:"brownout_transitions"`
	BrownoutShed        uint64 `json:"brownout_shed"`
	BrownoutStride      int64  `json:"brownout_admit_stride"`
	InvoluntaryShed     uint64 `json:"involuntary_shed"`
	DegradedVerdicts    uint64 `json:"degraded_verdicts"`
	RecordBudget        int64  `json:"record_budget"`

	// Compiled-kernel surfaces: the serving model's flat-form compile
	// cost and footprint, recorded at load time.
	CompileSeconds    float64 `json:"model_compile_seconds"`
	CompiledModels    int     `json:"model_compiled_submodels"`
	CompiledTreeNodes int     `json:"model_tree_nodes,omitempty"`
	CompiledRuleConds int     `json:"model_rule_conds,omitempty"`
	CompiledNBEntries int     `json:"model_nb_entries,omitempty"`

	// Observability surfaces: the SLO burn rates over both alerting
	// windows, the flight recorder's fill, the path of a preserved
	// pre-crash flight dump (set when this boot followed an unclean
	// shutdown), and the access log's sampling outcome.
	SLOBurnRate5m    float64 `json:"slo_burn_rate_5m"`
	SLOBurnRate1h    float64 `json:"slo_burn_rate_1h"`
	FlightTraces     int     `json:"flight_traces"`
	FlightEvents     uint64  `json:"flight_events"`
	FlightCrashDump  string  `json:"flight_crash_dump,omitempty"`
	AccessLogLines   uint64  `json:"access_log_lines"`
	AccessLogDropped uint64  `json:"access_log_dropped"`
}

// Server is the scoring service. Construct with New, expose with
// Handler, run with Run.
type Server struct {
	cfg      Config
	model    *modelHolder
	streams  *streamTable
	adm      *admitter
	brown    *overloadController
	draining atomic.Bool
	mux      *http.ServeMux
	met      *serverMetrics
	start    time.Time

	// restoring is true while the boot-time checkpoint restore runs;
	// restoreDone closes when it finishes (immediately when checkpointing
	// is disabled). lastRestore and lastCheckpoint feed /statz.
	restoring      atomic.Bool
	restoreDone    chan struct{}
	lastRestore    atomic.Pointer[opEvent]
	lastCheckpoint atomic.Pointer[CheckpointInfo]

	goVersion string
	buildRev  string

	// flight is the black-box recorder; slo the burn-rate monitor (nil
	// when SLOLatency < 0); alog the sampled access log (nil when
	// disabled). flightCrash holds the path of a preserved pre-crash dump
	// for /statz; panicDumped makes the panic flight dump one-shot.
	flight      *obs.FlightRecorder
	slo         *obs.SLOMonitor
	alog        *accessLog
	flightCrash atomic.Pointer[string]
	panicDumped atomic.Bool

	// feat caches the per-generation feature metrics binding (only used
	// with Config.FeatureMetrics).
	feat atomic.Pointer[featureMetrics]
	// evictLogGen remembers the model generation whose first stream
	// eviction has already been logged (stored as generation+1, so the
	// zero value never matches).
	evictLogGen atomic.Uint64
}

// featureMetrics binds one model generation's analyzer to its registered
// per-feature metric families.
type featureMetrics struct {
	version uint64
	sm      *core.ScoreMetrics
}

// New loads and validates the model bundle and builds the service. A
// missing, truncated or checksum-mismatched model fails here, before any
// socket is bound.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.ModelPath == "" {
		return nil, fmt.Errorf("serve: ModelPath is required")
	}
	met := newServerMetrics(cfg.Registry)
	s := &Server{
		cfg:         cfg,
		model:       newModelHolder(cfg.ModelPath, met.reloads, met.reloadFailures),
		streams:     newStreamTable(cfg.MaxStreams, cfg.Shards, met.shardLockWait),
		adm:         newAdmitterInflight(cfg.MaxConcurrent, cfg.MaxQueue, cfg.MaxInFlightRequests, cfg.MaxQueueRecords, met.shed, met.shedRecords, met.timeouts),
		met:         met,
		start:       time.Now(),
		restoreDone: make(chan struct{}),
	}
	s.brown = newOverloadController(s.adm, met, cfg)
	s.goVersion, s.buildRev = buildInfo()
	s.streams.onEvict = s.observeEviction
	s.streams.onCreate = func(string) { met.coldStarts.Inc() }
	s.flight = obs.NewFlightRecorder(cfg.FlightTraceCap, cfg.FlightTraceCap)
	s.flight.AddExemplarSource("cfa_request_seconds", met.latency)
	s.flight.AddExemplarSource("cfa_score{verdict=\"normal\"}", met.scoreNormal)
	s.flight.AddExemplarSource("cfa_score{verdict=\"anomaly\"}", met.scoreAnomaly)
	if cfg.SLOLatency > 0 {
		s.slo = obs.NewSLOMonitor(cfg.SLOObjective)
	}
	s.alog = newAccessLog(cfg.AccessLog, cfg.AccessLogSample, s.brown.level, met.accessLogLines, met.accessLogDropped)
	s.brown.event = s.flightEvent
	met.registerGauges(s)
	if err := s.model.reload(); err != nil {
		return nil, err
	}
	if cfg.CheckpointPath == "" {
		// Nothing will ever restore; anything waiting on the restore
		// barrier (checkpoint loop, final checkpoint) may proceed at once.
		close(s.restoreDone)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/score", s.handleScore)
	s.mux.HandleFunc("POST /v1/score-batch", s.handleScoreBatch)
	s.mux.HandleFunc("POST /v1/reload", s.handleReload)
	s.mux.HandleFunc("POST /v1/checkpoint", s.handleCheckpoint)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /statz", s.handleStatz)
	s.mux.Handle("GET /metrics", obs.MetricsHandler(cfg.Registry))
	return s, nil
}

// observeEviction counts every LRU stream eviction and logs the first one
// per model generation: a single log line is the operator's cue that the
// stream table is at capacity (churning clients, or an id-inventing
// attacker), without letting a sustained churn storm flood the log.
func (s *Server) observeEviction(id string) {
	s.met.evictions.Inc()
	var gen uint64
	if lm := s.model.current(); lm != nil {
		gen = lm.version
	}
	if s.evictLogGen.Swap(gen+1) != gen+1 {
		s.cfg.Logf("serve: stream table full (max %d): evicted least-recent stream %q (first eviction at model generation %d)",
			s.cfg.MaxStreams, id, gen)
		// Only the first eviction per generation lands in the flight
		// recorder too: a churn storm must not wash the request traces out
		// of the event ring.
		s.flightEvent("eviction", fmt.Sprintf("stream %q (model generation %d)", id, gen))
	}
}

// Handler returns the full middleware stack: panic recovery outermost,
// then routing.
func (s *Server) Handler() http.Handler { return s.recoverWrap(s.mux) }

// Reload re-reads the model file and atomically installs it; on failure
// the previous model keeps serving and the error is surfaced in /readyz.
func (s *Server) Reload() error {
	err := s.model.reload()
	if err != nil {
		s.cfg.Logf("serve: model reload failed, keeping version %d: %v",
			s.model.current().version, err)
		s.flightEvent("reload-failed", err.Error())
		return err
	}
	s.cfg.Logf("serve: model reloaded, now version %d", s.model.current().version)
	s.flightEvent("reload", fmt.Sprintf("model version %d", s.model.current().version))
	return nil
}

// Draining reports whether the server is in graceful shutdown.
func (s *Server) Draining() bool { return s.draining.Load() }

// Readiness snapshots the reload/drain condition /readyz reports.
func (s *Server) Readiness() Readiness {
	r := Readiness{
		Draining:       s.draining.Load(),
		Restoring:      s.restoring.Load(),
		ModelPath:      s.cfg.ModelPath,
		Reloads:        s.model.reloads.Value(),
		ReloadFailures: s.model.failures.Value(),
	}
	if lm := s.model.current(); lm != nil {
		r.ModelVersion = lm.version
		r.Ready = !r.Draining && !r.Restoring
	}
	r.LastReloadError = s.model.lastError()
	if ev := s.lastRestore.Load(); ev != nil {
		r.LastRestoreError = ev.err
	}
	return r
}

// Stats snapshots the operational counters /statz reports.
func (s *Server) Stats() Stats {
	depth, hw := s.adm.depth()
	st := Stats{
		Requests:       s.met.requests.Value(),
		BatchRequests:  s.met.batchRequests.Value(),
		RecordsScored:  s.met.scored.Value(),
		Shed:           s.met.shed.Value(),
		ShedRecords:    s.met.shedRecords.Value(),
		QueueTimeouts:  s.met.timeouts.Value(),
		BadRequests:    s.met.badRequests.Value(),
		Panics:         s.met.panics.Value(),
		InvalidScores:  s.met.invalid.Value(),
		QueueDepth:     depth,
		QueueHighWater: hw,
		QueuedRecords:  s.adm.recordDepth(),
		Streams:        s.streams.len(),
		Shards:         s.streams.numShards(),
		ShardLockWaits: s.met.shardLockWait.Value(),
		Evictions:      s.met.evictions.Value(),
		Reloads:        s.met.reloads.Value(),
		ReloadFailures: s.met.reloadFailures.Value(),
		UptimeSeconds:  time.Since(s.start).Seconds(),
		GoVersion:      s.goVersion,
		BuildRevision:  s.buildRev,

		CheckpointWrites:   s.met.checkpointWrites.Value(),
		CheckpointFailures: s.met.checkpointFailures.Value(),
		StreamsRestored:    s.met.streamsRestored.Value(),
		StreamColdStarts:   s.met.coldStarts.Value(),
		Restoring:          s.restoring.Load(),

		InflightRequests:    s.adm.inflightRequests(),
		InflightShed:        s.met.inflightShed.Value(),
		BrownoutLevel:       s.brown.level(),
		BrownoutTransitions: s.met.brownoutTransitions.Value(),
		BrownoutShed:        s.met.brownoutShed.Value(),
		BrownoutStride:      s.brown.sampleStride(),
		InvoluntaryShed:     s.adm.unwantedShed(),
		RecordBudget:        s.adm.recordBudget(),
	}
	for lvl, c := range s.met.brownoutVerdicts {
		if lvl > brownoutOff {
			st.DegradedVerdicts += c.Value()
		}
	}
	if lm := s.model.current(); lm != nil {
		st.ModelVersion = lm.version
		st.CompileSeconds = lm.compile.Duration.Seconds()
		st.CompiledModels = lm.compile.Models
		st.CompiledTreeNodes = lm.compile.TreeNodes
		st.CompiledRuleConds = lm.compile.RuleConds
		st.CompiledNBEntries = lm.compile.TableEntries
	}
	if ev := s.model.lastEvent.Load(); ev != nil {
		st.LastReloadError = ev.err
		st.LastReloadUnix = ev.at.Unix()
	}
	if ev := s.lastRestore.Load(); ev != nil {
		st.LastRestoreError = ev.err
		st.LastRestoreUnix = ev.at.Unix()
	}
	if ci := s.lastCheckpoint.Load(); ci != nil {
		st.CheckpointStreams = ci.Streams
		st.CheckpointUnix = ci.At.Unix()
	}
	if s.slo != nil {
		st.SLOBurnRate5m = s.slo.BurnRate(5 * time.Minute)
		st.SLOBurnRate1h = s.slo.BurnRate(time.Hour)
	}
	st.FlightTraces = s.flight.TraceCount()
	st.FlightEvents = s.met.flightEvents.Value()
	if p := s.flightCrash.Load(); p != nil {
		st.FlightCrashDump = *p
	}
	st.AccessLogLines = s.met.accessLogLines.Value()
	st.AccessLogDropped = s.met.accessLogDropped.Value()
	return st
}

// Run serves on ln until ctx is cancelled, then drains gracefully:
// in-flight requests get DrainTimeout to finish while new connections are
// refused; whatever survives the timeout is force-closed. With
// checkpointing enabled, Run restores stream state in the background
// (with /readyz reporting 503 until it finishes), checkpoints
// periodically, and writes a final checkpoint after the drain.
func (s *Server) Run(ctx context.Context, ln net.Listener) error {
	if !s.cfg.DisableAdaptiveOverload {
		go s.brown.run(ctx)
	}
	if s.cfg.CheckpointPath != "" {
		// Before anything overwrites the flight file: preserve a crashed
		// predecessor's black box, then arm the dirty marker for this
		// process.
		s.recoverFlightDump()
	}
	if s.cfg.CheckpointPath != "" {
		// Restore runs concurrently with serving: the socket accepts at
		// once (a load balancer that ignores /readyz still gets scored,
		// just cold), and live traffic beats checkpoint state per stream.
		s.restoring.Store(true)
		go func() {
			s.RestoreCheckpoint()
			s.restoring.Store(false)
			close(s.restoreDone)
		}()
		go s.runCheckpointLoop(ctx)
	}
	hs := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return fmt.Errorf("serve: listener failed: %w", err)
	case <-ctx.Done():
	}
	s.draining.Store(true)
	s.cfg.Logf("serve: draining (timeout %s)", s.cfg.DrainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	err := hs.Shutdown(dctx)
	if err != nil {
		hs.Close()
	}
	<-errc // Serve has returned http.ErrServerClosed
	if s.cfg.CheckpointPath != "" {
		// Save whatever the drain left behind. The restore barrier has
		// long since passed on any real shutdown, but guard it anyway so
		// an immediate cancel cannot checkpoint an empty table over a
		// restorable file. Failure costs warm state on the next boot,
		// not the clean exit.
		select {
		case <-s.restoreDone:
			if _, cerr := s.Checkpoint(); cerr != nil {
				s.cfg.Logf("serve: final checkpoint failed: %v", cerr)
			}
		default:
			s.cfg.Logf("serve: skipping final checkpoint: restore still in flight")
		}
		// The process is exiting deliberately: persist the final flight
		// dump and disarm the dirty marker so the next boot does not
		// mistake this shutdown for a crash.
		s.markCleanShutdown()
	}
	if err != nil {
		return fmt.Errorf("serve: drain incomplete: %w", err)
	}
	return nil
}

// recoverWrap converts a handler panic into a 500 and a counter bump
// instead of a dead worker; one poisoned request must not take the
// process (or any other request) down with it.
func (s *Server) recoverWrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				if p == http.ErrAbortHandler {
					panic(p)
				}
				s.met.panics.Inc()
				s.cfg.Logf("serve: panic in %s %s: %v", r.Method, r.URL.Path, p)
				s.flightEvent("panic", fmt.Sprintf("%s %s: %v", r.Method, r.URL.Path, p))
				s.dumpPanic()
				writeJSONError(w, http.StatusInternalServerError, "internal error")
			}
		}()
		h.ServeHTTP(w, r)
	})
}

// handleScore is the single-stream endpoint. It is a thin shim over the
// same pipeline /v1/score-batch uses — decode, validate, records-based
// admission, scoreItems — so the two endpoints cannot drift: a record
// scored here and the same record inside a batch take the identical code
// path from discretisation to detector state.
//
// One semantic sharpening over the pre-batch handler: a request with a
// malformed record now fails atomically, before any of its records touch
// the stream's detector. (Previously records ahead of the bad one had
// already been observed when the 400 went out.)
func (s *Server) handleScore(w http.ResponseWriter, r *http.Request) {
	s.met.requests.Inc()
	tr, sw := s.traceRequest(w, r, "score")
	w = sw
	defer s.finishRequest(tr, sw)
	exit, ok := s.gateEnter(w)
	if !ok {
		return
	}
	defer exit()
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()

	var req ScoreRequest
	if !s.decodeBody(ctx, w, r, s.cfg.MaxBodyBytes, func(b []byte) error { return decodeScoreRequest(b, &req) }) {
		return
	}
	tr.Hop("decode")
	tr.RT.Stream = req.Stream
	tr.RT.Records = len(req.Records)
	if req.Stream == "" || len(req.Records) == 0 {
		s.met.badRequests.Inc()
		writeJSONError(w, http.StatusBadRequest, "score request needs a stream id and at least one record")
		return
	}
	n := len(req.Records)
	s.met.batchRecords.Observe(float64(n))
	release, err := s.adm.admitN(ctx, n)
	switch {
	case errors.Is(err, ErrOverloaded):
		s.shedReply(w, n, err.Error())
		return
	case err != nil:
		writeJSONError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	defer release()
	tr.Hop("admit")
	if hook := s.cfg.scoreHook; hook != nil {
		hook(req.Stream)
	}

	lm := s.model.current()
	lvl := s.brown.level()
	items, scored := s.scoreItems(lm, []ScoreRequest{req}, lvl, tr)
	if items[0].Error != "" {
		s.met.badRequests.Inc()
		tr.RT.Err = items[0].Error
		writeJSONError(w, http.StatusBadRequest, items[0].Error)
		return
	}
	s.met.scored.Add(uint64(scored))
	degraded := degradedMode(lvl)
	tr.RT.Degraded = degraded
	if degraded != "" {
		w.Header().Set(degradedHeader, degraded)
	}
	writeJSON(w, http.StatusOK, ScoreResponse{Stream: req.Stream, ModelVersion: lm.version, Results: items[0].Results, Degraded: degraded})
}

// degradedHeader is set on every response served under brownout — 200s
// carry the degradation mode, sample-shed 429s carry the mode with "+shed"
// — so a client can always tell a full verdict from a degraded one.
const degradedHeader = "X-CFA-Degraded"

// shedReply writes the 429 for a request shed by admission: Retry-After
// priced off the live backlog (including the rejected records themselves),
// then the shed records folded into the decaying backlog behind future
// hints — in that order, or the batch would be priced twice.
func (s *Server) shedReply(w http.ResponseWriter, n int, msg string) {
	w.Header().Set("Retry-After", strconv.Itoa(s.adm.retryAfterHint(n)))
	s.adm.noteShed(int64(n))
	writeJSONError(w, http.StatusTooManyRequests, msg)
}

// gateEnter claims the pre-decode in-flight slot for one score request,
// writing the 429 itself when the request may not proceed. Brownout
// level 3's sample-shed also fires here, before any body bytes are
// parsed: both sheds exist to be cheaper than the work they displace,
// and under an open-loop storm the body decode is most of that work.
// Neither knows the request's record count (the body was never read), so
// their cost enters the Retry-After backlog as the records-per-request
// estimate, while cfa_shed_records_total stays exact by counting
// admission-time sheds only.
func (s *Server) gateEnter(w http.ResponseWriter) (exit func(), ok bool) {
	exit, ok = s.adm.enterRequest()
	if !ok {
		s.met.inflightShed.Inc()
		s.shedReplyEst(w, "serve: overloaded, too many requests in flight")
		return nil, false
	}
	if s.brown.shedSample() {
		exit()
		s.met.shed.Inc()
		s.met.brownoutShed.Inc()
		w.Header().Set(degradedHeader, degradedMode(s.brown.level()))
		s.shedReplyEst(w, "serve: overloaded, sample-shedding at brownout level 3")
		return nil, false
	}
	return exit, true
}

// shedReplyEst is shedReply for requests refused before their body was
// decoded, priced at the records-per-request estimate.
func (s *Server) shedReplyEst(w http.ResponseWriter, msg string) {
	n := int(s.adm.estRecordsPerRequest())
	w.Header().Set("Retry-After", strconv.Itoa(s.adm.retryAfterHint(n)))
	s.adm.noteShed(int64(n))
	writeJSONError(w, http.StatusTooManyRequests, msg)
}

// decodeBody reads one request body to EOF, bounded in bytes by limit and
// in time by ctx's deadline, and parses it with decode (see wire.go).
// Slow clients may not stall a handler forever: the body must arrive
// before the request deadline. (Best effort — not every ResponseWriter
// supports read deadlines.) The deadline is cleared once the body is in
// so a keep-alive connection is reusable. On failure the error response
// has been written and false is returned.
//
// The body is read into a pooled buffer that goes back to the pool as
// soon as decode returns, so decode must not retain it: the wire decoder
// copies every string out, and floats are values, so nothing decoded
// aliases the buffer (TestDecodeDoesNotAliasBody).
func (s *Server) decodeBody(ctx context.Context, w http.ResponseWriter, r *http.Request, limit int64, decode func([]byte) error) bool {
	rc := http.NewResponseController(w)
	if deadline, ok := ctx.Deadline(); ok {
		rc.SetReadDeadline(deadline)
	}
	buf := bodyPool.Get().(*bytes.Buffer)
	buf.Reset()
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit))
	if err == nil {
		err = decode(buf.Bytes())
	}
	if buf.Cap() <= maxPooledBody {
		bodyPool.Put(buf)
	}
	if err != nil {
		s.met.badRequests.Inc()
		var tooBig *http.MaxBytesError
		switch {
		case errors.As(err, &tooBig):
			writeJSONError(w, http.StatusRequestEntityTooLarge, err.Error())
		case errors.Is(err, os.ErrDeadlineExceeded), ctx.Err() != nil:
			writeJSONError(w, http.StatusRequestTimeout, "request body did not arrive within the deadline")
		default:
			writeJSONError(w, http.StatusBadRequest, "malformed score request: "+err.Error())
		}
		return false
	}
	rc.SetReadDeadline(time.Time{})
	return true
}

// maxPooledBody is the largest body buffer returned to bodyPool; a rare
// fatter body's buffer is left to the collector instead of pinning that
// much memory per pooled slot.
const maxPooledBody = 1 << 20

// bodyPool recycles request body buffers across requests, so a steady
// stream of similar bodies reads without allocating. A buffer grows only
// as bytes arrive, never ahead of them from a declared Content-Length,
// so an idle client holds no more memory than it has sent.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// newOnlineDetector builds a per-stream detector against lm with the
// configured knobs applied. Checkpoint restore uses the same constructor
// and then overlays the saved state, so config always wins over whatever
// knob values were in force when the checkpoint was written.
func (s *Server) newOnlineDetector(lm *loadedModel) *core.OnlineDetector {
	od := core.NewOnlineDetector(lm.detector)
	s.applyDetectorKnobs(od)
	return od
}

// applyDetectorKnobs overlays the configured smoothing/hysteresis knobs
// onto od; zero-valued config fields leave the detector's values alone.
func (s *Server) applyDetectorKnobs(od *core.OnlineDetector) {
	if s.cfg.Smoothing > 0 {
		od.Smoothing = s.cfg.Smoothing
	}
	if s.cfg.RaiseAfter > 0 {
		od.RaiseAfter = s.cfg.RaiseAfter
	}
	if s.cfg.ClearAfter > 0 {
		od.ClearAfter = s.cfg.ClearAfter
	}
}

// featureMetricsFor returns the per-feature metrics bound to lm's
// analyzer, building the binding on the first request of each model
// generation. Registration is idempotent by (name, labels), so a race
// between two first requests just does the lookup twice.
func (s *Server) featureMetricsFor(lm *loadedModel) *core.ScoreMetrics {
	if !s.cfg.FeatureMetrics {
		return nil
	}
	if fm := s.feat.Load(); fm != nil && fm.version == lm.version {
		return fm.sm
	}
	fm := &featureMetrics{
		version: lm.version,
		sm:      core.NewScoreMetrics(s.cfg.Registry, lm.bundle.Analyzer, "cfa"),
	}
	s.feat.Store(fm)
	return fm.sm
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if err := s.Reload(); err != nil {
		writeJSONError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, s.Readiness())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	rd := s.Readiness()
	code := http.StatusOK
	if !rd.Ready {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, rd)
}

func (s *Server) handleStatz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func isFinite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeJSONError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
