package serve

import (
	"runtime"
	"runtime/debug"
	"strconv"
	"time"

	"crossfeature/internal/core"
	"crossfeature/internal/obs"
)

// serverMetrics owns every operational signal the service emits. The obs
// registry is the single source of truth: /statz and /metrics read the
// same counters, so the two surfaces can never disagree. Counters that
// belong to subsystems (admission gate, model holder, stream table) are
// created here and injected, keeping the subsystems free of naming
// concerns.
type serverMetrics struct {
	reg *obs.Registry

	requests       *obs.Counter
	scored         *obs.Counter
	badRequests    *obs.Counter
	panics         *obs.Counter
	invalid        *obs.Counter
	shed           *obs.Counter
	shedRecords    *obs.Counter
	timeouts       *obs.Counter
	evictions      *obs.Counter
	reloads        *obs.Counter
	reloadFailures *obs.Counter
	batchRequests  *obs.Counter
	shardLockWait  *obs.Counter

	checkpointWrites         *obs.Counter
	checkpointFailures       *obs.Counter
	checkpointStreamsSkipped *obs.Counter
	streamsRestored          *obs.Counter
	coldStarts               *obs.Counter
	// restoreOutcomes holds one pre-registered labeled counter per restore
	// outcome; restoreOutcome looks them up.
	restoreOutcomes map[string]*obs.Counter

	inflightShed        *obs.Counter
	brownoutShed        *obs.Counter
	brownoutTransitions *obs.Counter

	flightTraces       *obs.Counter
	flightEvents       *obs.Counter
	flightDumpWrites   *obs.Counter
	flightDumpFailures *obs.Counter
	flightRecovered    *obs.Counter
	accessLogLines     *obs.Counter
	accessLogDropped   *obs.Counter
	// brownoutVerdicts holds one pre-registered labeled counter per brownout
	// level; brownoutVerdict looks them up.
	brownoutVerdicts map[int]*obs.Counter

	latency           *obs.Histogram
	scoreNormal       *obs.Histogram
	scoreAnomaly      *obs.Histogram
	checkpointSeconds *obs.Histogram
	batchRecords      *obs.Histogram
}

func newServerMetrics(reg *obs.Registry) *serverMetrics {
	return &serverMetrics{
		reg: reg,
		requests: reg.Counter("cfa_requests_total",
			"Score requests received, including rejected ones."),
		scored: reg.Counter("cfa_records_scored_total",
			"Audit records scored successfully."),
		badRequests: reg.Counter("cfa_bad_requests_total",
			"Score requests rejected as malformed."),
		panics: reg.Counter("cfa_panics_total",
			"Handler panics recovered into 500 responses."),
		invalid: reg.Counter("cfa_invalid_scores_total",
			"Records whose raw score came out non-finite."),
		shed: reg.Counter("cfa_shed_total",
			"Requests shed with 429 because the admission queue was full."),
		shedRecords: reg.Counter("cfa_shed_records_total",
			"Records inside shed requests: the overload signal in units of work, not envelopes."),
		batchRequests: reg.Counter("cfa_batch_requests_total",
			"Batch score requests received on /v1/score-batch."),
		shardLockWait: reg.Counter("cfa_stream_shard_lock_wait_total",
			"Stream-table shard lock acquisitions that had to wait; a rising rate means raise -shards."),
		timeouts: reg.Counter("cfa_queue_timeouts_total",
			"Requests whose deadline expired while queued for a scoring slot."),
		evictions: reg.Counter("cfa_stream_evictions_total",
			"Streams evicted from the LRU stream table."),
		reloads: reg.Counter("cfa_reloads_total",
			"Successful model reloads (including the initial load)."),
		reloadFailures: reg.Counter("cfa_reload_failures_total",
			"Model reloads rejected by validation; the old model kept serving."),
		checkpointWrites: reg.Counter("cfa_checkpoint_writes_total",
			"Stream-state checkpoints written successfully."),
		checkpointFailures: reg.Counter("cfa_checkpoint_write_failures_total",
			"Checkpoint writes that failed; the previous checkpoint file was kept."),
		checkpointStreamsSkipped: reg.Counter("cfa_checkpoint_streams_skipped_total",
			"Streams left out of a checkpoint or restore (busy at snapshot time, oversized id, or an unreadable state entry)."),
		streamsRestored: reg.Counter("cfa_checkpoint_streams_restored_total",
			"Streams warmed from a checkpoint at boot."),
		coldStarts: reg.Counter("cfa_stream_cold_starts_total",
			"Streams created cold with fresh detector state (not checkpoint-restored)."),
		inflightShed: reg.Counter("cfa_inflight_shed_total",
			"Requests shed at the pre-decode in-flight gate, before their body was read."),
		brownoutShed: reg.Counter("cfa_brownout_shed_total",
			"Requests sample-shed at brownout level 3, on top of queue-full sheds."),
		brownoutTransitions: reg.Counter("cfa_brownout_transitions_total",
			"Brownout level changes in either direction, including failpoint-forced ones."),
		flightTraces: reg.Counter("cfa_flight_traces_total",
			"Completed request traces published into the flight recorder."),
		flightEvents: reg.Counter("cfa_flight_events_total",
			"Operational state transitions recorded into the flight recorder."),
		flightDumpWrites: reg.Counter("cfa_flight_dump_writes_total",
			"Flight-recorder dumps persisted next to the checkpoint."),
		flightDumpFailures: reg.Counter("cfa_flight_dump_failures_total",
			"Flight-recorder dump writes that failed; the previous dump file was kept."),
		flightRecovered: reg.Counter("cfa_flight_recovered_total",
			"Boots that found an unclean shutdown and preserved the pre-crash flight dump."),
		accessLogLines: reg.Counter("cfa_access_log_lines_total",
			"Access-log lines written after sampling."),
		accessLogDropped: reg.Counter("cfa_access_log_dropped_total",
			"Access-log lines dropped by the sample stride (widened under brownout)."),
		brownoutVerdicts: func() map[int]*obs.Counter {
			const help = "Records scored, by the brownout level they were served under."
			m := make(map[int]*obs.Counter, brownoutMaxLevel+1)
			for lvl := brownoutOff; lvl <= brownoutMaxLevel; lvl++ {
				m[lvl] = reg.Counter("cfa_brownout_verdicts_total", help,
					obs.L("level", strconv.Itoa(lvl)))
			}
			return m
		}(),
		restoreOutcomes: map[string]*obs.Counter{
			"restored": reg.Counter("cfa_checkpoint_restore_total",
				"Boot-time checkpoint restore attempts by outcome.", obs.L("outcome", "restored")),
			"missing": reg.Counter("cfa_checkpoint_restore_total",
				"Boot-time checkpoint restore attempts by outcome.", obs.L("outcome", "missing")),
			"corrupt": reg.Counter("cfa_checkpoint_restore_total",
				"Boot-time checkpoint restore attempts by outcome.", obs.L("outcome", "corrupt")),
			"stale": reg.Counter("cfa_checkpoint_restore_total",
				"Boot-time checkpoint restore attempts by outcome.", obs.L("outcome", "stale")),
		},
		// 50µs to 6.6s: fine enough that a sub-millisecond request's
		// quantile is measured, not interpolated inside the first bucket.
		latency: reg.Histogram("cfa_request_seconds",
			"Score request latency: queue wait, body read and scoring.",
			obs.ExpBuckets(0.00005, 2, 18)),
		scoreNormal: reg.Histogram("cfa_score",
			"Raw record scores by verdict at the calibrated threshold.",
			obs.LinearBuckets(0.05, 0.05, 19), obs.L("verdict", "normal")),
		scoreAnomaly: reg.Histogram("cfa_score",
			"Raw record scores by verdict at the calibrated threshold.",
			obs.LinearBuckets(0.05, 0.05, 19), obs.L("verdict", "anomaly")),
		checkpointSeconds: reg.Histogram("cfa_checkpoint_seconds",
			"Wall time of one checkpoint write: snapshot, encode, fsync, rename.",
			obs.ExpBuckets(0.0005, 2, 14)),
		batchRecords: reg.Histogram("cfa_batch_records",
			"Records per scoring request across both endpoints (a single /v1/score lands in the first bucket).",
			obs.ExpBuckets(1, 2, 14)),
	}
}

// restoreOutcome returns the labeled restore counter for outcome, falling
// back to a throwaway counter for an outcome string the table does not
// know (a bug, but not one worth panicking a boot over).
func (m *serverMetrics) restoreOutcome(outcome string) *obs.Counter {
	if c, ok := m.restoreOutcomes[outcome]; ok {
		return c
	}
	return obs.NewCounter()
}

// brownoutVerdict returns the per-level verdict counter, with the same
// throwaway fallback as restoreOutcome for a level outside the table.
func (m *serverMetrics) brownoutVerdict(lvl int) *obs.Counter {
	if c, ok := m.brownoutVerdicts[lvl]; ok {
		return c
	}
	return obs.NewCounter()
}

// registerGauges binds the sampled gauges once the server's subsystems
// exist; their values are read live at scrape time.
func (m *serverMetrics) registerGauges(s *Server) {
	m.reg.GaugeFunc("cfa_queue_depth",
		"Requests currently waiting for a scoring slot.", func() float64 {
			d, _ := s.adm.depth()
			return float64(d)
		})
	m.reg.GaugeFunc("cfa_queue_high_water",
		"Deepest the admission queue has been.", func() float64 {
			_, hw := s.adm.depth()
			return float64(hw)
		})
	m.reg.GaugeFunc("cfa_streams",
		"Live per-stream detectors in the LRU table.", func() float64 {
			return float64(s.streams.len())
		})
	m.reg.GaugeFunc("cfa_queued_records",
		"Records admitted or waiting across all in-flight requests.", func() float64 {
			return float64(s.adm.recordDepth())
		})
	m.reg.GaugeFunc("cfa_inflight_requests",
		"Score requests inside a handler, including those still decoding their body.", func() float64 {
			return float64(s.adm.inflightRequests())
		})
	m.reg.GaugeFunc("cfa_brownout_level",
		"Current brownout degradation level (0 = full service).", func() float64 {
			return float64(s.brown.level())
		})
	m.reg.GaugeFunc("cfa_record_budget",
		"Live adaptive record budget admission reserves against.", func() float64 {
			return float64(s.adm.recordBudget())
		})
	m.reg.GaugeFunc("cfa_brownout_admit_stride",
		"Level-3 sample-shed stride: one request in this many is admitted (dormant below level 3).", func() float64 {
			return float64(s.brown.sampleStride())
		})
	const shardHelp = "Live streams per stream-table shard; skew here means a hot-spotted stream-id hash."
	for i := 0; i < s.streams.numShards(); i++ {
		shard := i
		m.reg.GaugeFunc("cfa_stream_shard_streams", shardHelp, func() float64 {
			return float64(s.streams.shardLen(shard))
		}, obs.L("shard", strconv.Itoa(shard)))
	}
	m.reg.GaugeFunc("cfa_model_generation",
		"Version of the currently serving model bundle.", func() float64 {
			if lm := s.model.current(); lm != nil {
				return float64(lm.version)
			}
			return 0
		})
	m.reg.GaugeFunc("cfa_uptime_seconds",
		"Seconds since the service was constructed.", func() float64 {
			return time.Since(s.start).Seconds()
		})
	if s.slo != nil {
		const burnHelp = "SLO error-budget burn rate over the alerting window (1.0 = burning exactly the budget)."
		for _, w := range []struct {
			label string
			d     time.Duration
		}{{"5m", 5 * time.Minute}, {"1h", time.Hour}} {
			win := w.d
			m.reg.GaugeFunc("cfa_slo_burn_rate", burnHelp, func() float64 {
				return s.slo.BurnRate(win)
			}, obs.L("window", w.label))
		}
	}
	m.reg.GaugeFunc("cfa_model_compile_seconds",
		"Wall time of the serving model's flat-kernel compile at load.", func() float64 {
			if lm := s.model.current(); lm != nil {
				return lm.compile.Duration.Seconds()
			}
			return 0
		})
	compiledSize := func(read func(core.CompileStats) int) func() float64 {
		return func() float64 {
			if lm := s.model.current(); lm != nil {
				return float64(read(lm.compile))
			}
			return 0
		}
	}
	const compiledSizeHelp = "Compiled inference-kernel footprint of the serving model by kind."
	m.reg.GaugeFunc("cfa_model_compiled_size", compiledSizeHelp,
		compiledSize(func(cs core.CompileStats) int { return cs.TreeNodes }),
		obs.L("kind", "tree_nodes"))
	m.reg.GaugeFunc("cfa_model_compiled_size", compiledSizeHelp,
		compiledSize(func(cs core.CompileStats) int { return cs.RuleConds }),
		obs.L("kind", "rule_conds"))
	m.reg.GaugeFunc("cfa_model_compiled_size", compiledSizeHelp,
		compiledSize(func(cs core.CompileStats) int { return cs.TableEntries }),
		obs.L("kind", "nb_entries"))
	m.reg.GaugeFunc("cfa_model_compiled_size", compiledSizeHelp,
		compiledSize(func(cs core.CompileStats) int { return cs.Models }),
		obs.L("kind", "models"))
}

// buildInfo reports the running binary's Go version and VCS revision, for
// the /statz payload. Revision is empty when the binary was built outside
// a checkout.
func buildInfo() (goVersion, revision string) {
	goVersion = runtime.Version()
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				revision = kv.Value
			}
		}
	}
	return goVersion, revision
}
