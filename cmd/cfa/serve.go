package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime/debug"
	"syscall"
	"time"

	"crossfeature/internal/failpoint"
	"crossfeature/internal/obs"
	"crossfeature/internal/serve"
)

// serveGCPercent is the collector target `cfa serve` runs at when GOGC is
// unset. The service keeps little live heap (a C4.5 bundle's analyzer
// and the stream table come to a few MB) while every 128-record batch
// leaves several hundred KB of garbage, so at Go's default of 100 the
// 4 MB minimum heap goal collects every few requests. On the serve-batch
// benchmark that cost about a fifth of server CPU per record
// (EXPERIMENTS.md "Brownout without the naive-Bayes fallback").
const serveGCPercent = 200

// serveCmd runs the hardened scoring service until SIGINT or SIGTERM
// triggers a graceful drain. SIGHUP hot-reloads the model file.
func serveCmd(args []string, w io.Writer) error {
	if _, set := os.LookupEnv("GOGC"); !set {
		debug.SetGCPercent(serveGCPercent)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return runServe(ctx, args, w)
}

// runServe is the cancellable core of serveCmd: it loads and validates the
// model before binding the listen socket (so a bad model is a clean
// startup failure, not a flapping endpoint), then serves until ctx is
// cancelled.
func runServe(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("cfa serve", flag.ContinueOnError)
	model := fs.String("model", "model.bin", "model path from cfa train")
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	debugAddr := fs.String("debug-addr", "", "optional debug listener (pprof, /metrics, /flightz, /failpoints); keep it private")
	featureMetrics := fs.Bool("feature-metrics", false, "export per-feature match/probability metrics (adds a per-record Explain pass, 1.0-1.7x the cost of scoring the record)")
	concurrency := fs.Int("concurrency", 0, "max in-flight score requests (0 = GOMAXPROCS)")
	queue := fs.Int("queue", 0, "max queued score requests beyond the in-flight limit (0 = default)")
	timeout := fs.Duration("timeout", 5*time.Second, "per-request deadline")
	var drain time.Duration
	fs.DurationVar(&drain, "drain", 10*time.Second, "graceful shutdown budget on SIGTERM")
	fs.DurationVar(&drain, "drain-timeout", 10*time.Second, "alias for -drain: bound on the graceful shutdown")
	maxStreams := fs.Int("max-streams", 1024, "per-stream detector states kept before LRU eviction")
	shards := fs.Int("shards", 0, "stream-table shards, rounded up to a power of two (0 = GOMAXPROCS)")
	maxBatchRecords := fs.Int("max-batch-records", 0, "records allowed in one /v1/score-batch request (0 = default)")
	maxQueueRecords := fs.Int64("max-queue-records", 0, "records admitted or queued across all in-flight requests (0 = default)")
	maxInflight := fs.Int("max-inflight", 0, "score requests concurrently in a handler, counted before body decode (0 = default)")
	smoothing := fs.Float64("smoothing", 0, "EWMA smoothing factor for online detectors (0 = default)")
	raiseAfter := fs.Int("raise-after", 0, "consecutive low scores before an alarm raises (0 = default)")
	clearAfter := fs.Int("clear-after", 0, "consecutive high scores before an alarm clears (0 = default)")
	checkpointPath := fs.String("checkpoint-path", "", "durable per-stream detector state file; empty disables checkpointing")
	checkpointInterval := fs.Duration("checkpoint-interval", 15*time.Second, "periodic checkpoint cadence")
	checkpointMaxAge := fs.Duration("checkpoint-max-age", time.Hour, "oldest checkpoint still restored at boot (negative disables the age check)")
	adaptive := fs.Bool("adaptive", true, "adaptive overload control: AIMD record budget plus brownout degradation under sustained overload")
	overloadTarget := fs.Duration("overload-target", 0, "projected queue-drain time past which the service counts as overloaded (0 = timeout/5)")
	brownoutTick := fs.Duration("brownout-tick", 0, "overload-controller cadence (0 = 100ms)")
	brownoutEnter := fs.Int("brownout-enter-after", 0, "consecutive overloaded ticks before the brownout level rises (0 = 3)")
	brownoutExit := fs.Int("brownout-exit-after", 0, "consecutive calm ticks before the brownout level falls (0 = 10)")
	accessLog := fs.String("access-log", "", "sampled JSON-lines access log: a file path, or - for stderr; empty disables")
	accessLogSample := fs.Int("access-log-sample", 1, "log one request in N (widened 4x per brownout level)")
	sloLatency := fs.Duration("slo", time.Second, "latency SLO for burn-rate accounting (negative disables the monitor)")
	sloObjective := fs.Float64("slo-objective", 0.99, "fraction of records that must be served within the SLO")
	flightTraces := fs.Int("flight-traces", 0, "request traces the flight recorder retains (0 = default)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Failpoints armed from the environment (CFA_FAILPOINTS="name=spec;...")
	// take effect before the model load, so even startup paths can be
	// exercised. The debug listener's /failpoints endpoint can re-arm at
	// runtime.
	if err := failpoint.ArmFromEnv(os.Getenv(failpoint.EnvVar)); err != nil {
		return fmt.Errorf("cfa serve: %s: %w", failpoint.EnvVar, err)
	}

	// The access log opens before the server: an unwritable log path is a
	// clean startup failure, mirroring the bind-error policy below.
	var alogW io.Writer
	switch *accessLog {
	case "":
	case "-":
		alogW = os.Stderr
	default:
		f, err := os.OpenFile(*accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("cfa serve: open access log: %w", err)
		}
		defer f.Close()
		alogW = f
	}

	reg := obs.NewRegistry()
	srv, err := serve.New(serve.Config{
		ModelPath:           *model,
		MaxConcurrent:       *concurrency,
		MaxQueue:            *queue,
		RequestTimeout:      *timeout,
		DrainTimeout:        drain,
		MaxStreams:          *maxStreams,
		Shards:              *shards,
		MaxBatchRecords:     *maxBatchRecords,
		MaxQueueRecords:     *maxQueueRecords,
		Smoothing:           *smoothing,
		RaiseAfter:          *raiseAfter,
		ClearAfter:          *clearAfter,
		CheckpointPath:      *checkpointPath,
		CheckpointInterval:  *checkpointInterval,
		CheckpointMaxAge:    *checkpointMaxAge,
		MaxInFlightRequests: *maxInflight,
		Registry:            reg,
		FeatureMetrics:      *featureMetrics,

		DisableAdaptiveOverload: !*adaptive,
		OverloadTarget:          *overloadTarget,
		BrownoutTick:            *brownoutTick,
		BrownoutEnterAfter:      *brownoutEnter,
		BrownoutExitAfter:       *brownoutExit,

		AccessLog:       alogW,
		AccessLogSample: *accessLogSample,
		SLOLatency:      *sloLatency,
		SLOObjective:    *sloObjective,
		FlightTraceCap:  *flightTraces,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "cfa serve: "+format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}

	// The debug surface shares the registry but never the public listener:
	// pprof handlers can be made to do unbounded work, so they must not sit
	// behind the admission controller they would distort.
	if *debugAddr != "" {
		mux := obs.DebugMux(reg)
		fph := http.StripPrefix("/failpoints", failpoint.Handler())
		mux.Handle("/failpoints", fph)
		mux.Handle("/failpoints/", fph)
		mux.Handle("/flightz", obs.FlightHandler(srv.Flight()))
		ps, err := obs.StartDebugServer(*debugAddr, mux)
		if err != nil {
			ln.Close()
			return err
		}
		defer ps.Close()
		fmt.Fprintf(w, "cfa serve: debug surface on http://%s/debug/pprof/ (and /metrics, /flightz, /failpoints)\n", ps.Addr())
	}

	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	go func() {
		for {
			select {
			case <-ctx.Done():
				return
			case <-hup:
				if err := srv.Reload(); err != nil {
					fmt.Fprintln(os.Stderr, "cfa serve: reload:", err)
				} else {
					fmt.Fprintln(os.Stderr, "cfa serve: model reloaded")
				}
			}
		}
	}()

	fmt.Fprintf(w, "cfa serve: listening on %s (model %s; SIGHUP reloads, SIGTERM drains)\n",
		ln.Addr(), *model)
	return srv.Run(ctx, ln)
}
