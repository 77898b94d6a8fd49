package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"syscall"
	"time"

	"crossfeature/internal/obs"
	"crossfeature/internal/serve"
)

const (
	// setupBoots is how many times set-up boots the server; setup_s is
	// the median. Single boots of the same bundle range over ±30%, so a
	// median of fewer repeats poorly from run to run.
	setupBoots = 25
	// pointWarmup opens each fixed-rate point, excluded from its latency
	// statistics while connections open and caches fill.
	pointWarmup = time.Second
)

// warmup is the part of a point of length dur excluded from its latency
// statistics: pointWarmup, or a fifth of dur for a point shorter than five.
func warmup(dur time.Duration) time.Duration { return min(pointWarmup, dur/5) }

// serveRun is one serve workload's run state: fixtures, the body rotation
// and its reference verdicts.
type serveRun struct {
	opts   runOpts
	sh     *serveShape
	fx     *fixtures
	reqs   [][]serve.ScoreRequest
	bodies [][]byte
	client *http.Client
	out    *outcome
}

func runServe(ctx context.Context, o runOpts) (*outcome, error) {
	sh := o.workload.serve
	fx, err := makeFixtures(ctx, o.bin, o.work, o.seed, sh.learner, o.smoke)
	if err != nil {
		return nil, err
	}
	reqs, bodies, err := sh.requests(fx.pool)
	if err != nil {
		return nil, err
	}
	r := &serveRun{
		opts: o, sh: sh, fx: fx, reqs: reqs, bodies: bodies,
		client: newClient(o.conns),
		out:    newOutcome(),
	}
	defer r.client.CloseIdleConnections()
	if o.trace {
		err = r.traced(ctx)
	} else {
		err = r.untraced(ctx)
	}
	return r.out, err
}

// untraced measures the end-to-end metrics: set-up over setupBoots boots
// (3 at smoke scale), then on the last server the verification pass and
// the nominal-rate point, whose server CPU time prices each record.
func (r *serveRun) untraced(ctx context.Context) error {
	n := setupBoots
	if r.opts.smoke {
		n = 3
	}
	var boots []float64
	var srv *server
	for i := 0; i < n; i++ {
		if srv != nil {
			srv.stop()
		}
		s, d, err := startServer(ctx, r.opts.bin.cfa, r.fx.bundle)
		if err != nil {
			return err
		}
		srv, boots = s, append(boots, d.Seconds())
	}
	defer srv.stop()
	fmt.Fprintf(os.Stderr, "%s: boots to first ready %.4f s\n", r.opts.workload.name, boots)
	if err := r.verify(srv); err != nil {
		return err
	}
	all, measured, cpu, err := r.cpuPoint(srv, 1, r.opts.seconds)
	if err != nil {
		return err
	}
	r.out.count(all)
	lat := latenciesMS(measured)
	r.p99(lat)
	rss, err := srv.peakRSSMB()
	if err != nil {
		return err
	}
	v := r.out.values
	v["setup_s"] = median(boots)
	v["p50_ms"] = median(lat)
	v["rec_per_cpu_s"] = r.scoredRecords(all) / cpu.Seconds()
	v["peak_rss_mb"] = rss
	return nil
}

// verify replays the body rotation once, sequentially on one connection,
// and compares every verdict with the in-process reference. The server
// is fresh, so its streams start cold like the reference's.
func (r *serveRun) verify(srv *server) error {
	ref, err := loadReference(r.fx.bundle)
	if err != nil {
		return err
	}
	url := srv.url(r.sh.path)
	for b, items := range r.reqs {
		r.out.attempted++
		want, err := ref.expect(items)
		if err != nil {
			return err
		}
		var got [][]serve.RecordResult
		if r.sh.batch() {
			var resp serve.BatchScoreResponse
			err = postJSON(r.client, url, r.bodies[b], &resp)
			for _, it := range resp.Items {
				if it.Error != "" && err == nil {
					err = fmt.Errorf("item %s: %s", it.Stream, it.Error)
				}
				got = append(got, it.Results)
			}
		} else {
			var resp serve.ScoreResponse
			err = postJSON(r.client, url, r.bodies[b], &resp)
			got = append(got, resp.Results)
		}
		if err != nil {
			r.out.failed++
		} else {
			err = compareResults(got, want)
		}
		if err != nil {
			r.out.correct = false
			fmt.Fprintf(os.Stderr, "%s: verification failed on body %d: %v\n", r.opts.workload.name, b, err)
			return nil
		}
	}
	return nil
}

// offer sends rate records/s open-loop for dur, Poisson arrivals drawn
// from the run's seed, and returns every request's sample; runID tags the
// requests' trace ids.
func (r *serveRun) offer(srv *server, runID uint64, rate float64, dur time.Duration) []sample {
	rng := rand.New(rand.NewSource(r.opts.seed))
	due := poissonDue(rng, rate/float64(r.sh.recordsPerRequest()), dur)
	t := &target{client: r.client, url: srv.url(r.sh.path), bodies: r.bodies, runID: runID}
	clk := newWallClock()
	return openLoop(clk, due, r.opts.conns, t.send(clk))
}

// point offers the nominal rate for dur and returns every sample and those
// due after the warm-up.
func (r *serveRun) point(srv *server, runID uint64, dur time.Duration) (all, measured []sample) {
	all = r.offer(srv, runID, r.sh.nominal, dur)
	warm := warmup(dur)
	for _, s := range all {
		if s.due >= warm {
			measured = append(measured, s)
		}
	}
	return all, measured
}

// capacity runs the capacity ladder on srv within half the run's length.
// Rungs past capacity are meant to fail, so their requests are probes,
// not counted among the run's operations.
func (r *serveRun) capacity(srv *server, runID uint64) float64 {
	rung := r.opts.seconds / (2 * ladderRungs)
	return capacitySearch(r.sh.ladder, func(rate float64) bool {
		ok := rungPasses(r.offer(srv, runID, rate, rung), rung, warmup(rung), r.sh.limit)
		fmt.Fprintf(os.Stderr, "%s: capacity rung %.0f rec/s passed=%v\n", r.opts.workload.name, rate, ok)
		return ok
	})
}

// cpuPoint runs point and returns, with its samples, the server CPU time
// the point consumed.
func (r *serveRun) cpuPoint(srv *server, runID uint64, dur time.Duration) (all, measured []sample, cpu time.Duration, err error) {
	cpu0, err := srv.cpuTime()
	if err != nil {
		return nil, nil, 0, err
	}
	all, measured = r.point(srv, runID, dur)
	cpu1, err := srv.cpuTime()
	return all, measured, cpu1 - cpu0, err
}

// p99 returns the nominal point's p99 and prints it with its sample
// count and the samples beyond it.
func (r *serveRun) p99(lat []float64) float64 {
	p99, beyond := nearestRank(lat, 99)
	fmt.Fprintf(os.Stderr, "%s: nominal %.0f rec/s: %d samples, p99 %.3f ms with %d beyond\n",
		r.opts.workload.name, r.sh.nominal, len(lat), p99, beyond)
	return p99
}

// latenciesMS returns each sample's latency in ms. A failed request counts
// as missing any latency limit: its latency is +Inf, so failures can only
// raise a percentile, and one that lands on a failure has no finite value.
func latenciesMS(ss []sample) []float64 {
	lat := make([]float64, len(ss))
	for i, s := range ss {
		lat[i] = latencyMS(s)
	}
	return lat
}

func latencyMS(s sample) float64 {
	if s.err != nil {
		return math.Inf(1)
	}
	return float64(s.latency()) / float64(time.Millisecond)
}

// scoredRecords is how many records the successful requests among ss
// carried; a failed request scored nothing.
func (r *serveRun) scoredRecords(ss []sample) float64 {
	n := 0
	for _, s := range ss {
		if s.err == nil {
			n++
		}
	}
	return float64(n * r.sh.recordsPerRequest())
}

// traced measures the per-layer metrics. An untraced nominal point on a
// default server gives the /statz deltas, process counters, generator
// cost and p99, and the capacity ladder follows on the same server; the
// same schedule against a server with its debug listener and a
// 4096-trace flight recorder gives per-hop server timings, matched to
// client spans by trace id; an in-process replay of the pool through the
// public functions times the core and features layers on their own.
func (r *serveRun) traced(ctx context.Context) error {
	v := r.out.values
	half := r.opts.seconds / 2

	srv, _, err := startServer(ctx, r.opts.bin.cfa, r.fx.bundle)
	if err != nil {
		return err
	}
	var untracedP50 float64
	err = r.verify(srv)
	if err == nil {
		untracedP50, err = r.statzPoint(srv, r.opts.seconds)
	}
	if err == nil {
		v["capacity_rec_s"] = r.capacity(srv, 3)
	}
	srv.stop()
	if err != nil {
		return err
	}

	tsrv, _, err := startServer(ctx, r.opts.bin.cfa, r.fx.bundle, "-debug-addr", "127.0.0.1:0", "-flight-traces", "4096")
	if err != nil {
		return err
	}
	const runID = 2
	poller := startFlightPoller("http://"+tsrv.debugAddr+"/flightz", runID)
	start := time.Now()
	all, _ := r.point(tsrv, runID, half)
	traces := poller.finish()
	tsrv.stop()
	r.out.count(all)
	rec := newRecorder()
	tracedP50, err := r.spans(rec, rec.since(start), all, warmup(half), traces)
	if err != nil {
		return err
	}
	v["trace.overhead_pct"] = (tracedP50 - untracedP50) / untracedP50 * 100
	if err := replayLayers(r.fx.bundle, r.fx.pool, v); err != nil {
		return err
	}
	return rec.write(r.opts.spansPath)
}

// statzPoint runs the untraced nominal point, diffing /statz, the
// server's CPU time and the generator's own CPU time around it, and
// returns the point's p50 latency in ms.
func (r *serveRun) statzPoint(srv *server, dur time.Duration) (float64, error) {
	ctl := &http.Client{Timeout: 5 * time.Second}
	var before, after serve.Stats
	if err := getJSON(ctl, srv.url("/statz"), &before); err != nil {
		return 0, err
	}
	self0 := selfCPU()
	all, measured, cpu, err := r.cpuPoint(srv, 1, dur)
	self1 := selfCPU()
	if err != nil {
		return 0, err
	}
	if err := getJSON(ctl, srv.url("/statz"), &after); err != nil {
		return 0, err
	}
	r.out.count(all)

	v := r.out.values
	recs := r.scoredRecords(all)
	var reqBytes, respBytes, late []float64
	for _, s := range all {
		reqBytes = append(reqBytes, float64(s.reqBytes))
		respBytes = append(respBytes, float64(s.respBytes))
	}
	for _, s := range measured {
		late = append(late, float64(s.lateness())/float64(time.Millisecond))
	}
	items := float64((after.Requests - before.Requests) * uint64(r.sh.items))
	cold := float64(after.StreamColdStarts - before.StreamColdStarts)
	v["serve.requests"] = float64(after.Requests - before.Requests)
	v["serve.records_scored"] = float64(after.RecordsScored - before.RecordsScored)
	v["serve.shed"] = float64(after.Shed - before.Shed)
	v["serve.bad_requests"] = float64(after.BadRequests - before.BadRequests)
	v["serve.queue_high_water"] = float64(after.QueueHighWater)
	v["serve.stream_cold_starts"] = cold
	v["serve.stream_evictions"] = float64(after.Evictions - before.Evictions)
	v["serve.shard_lock_waits"] = float64(after.ShardLockWaits - before.ShardLockWaits)
	v["serve.brownout_transitions"] = float64(after.BrownoutTransitions - before.BrownoutTransitions)
	if items > 0 {
		v["serve.stream_hit_ratio"] = 1 - cold/items
	}
	v["serve.cpu_ms_per_krec"] = ms(cpu) / recs * 1000
	v["serve.req_bytes_per_rec"] = mean(reqBytes) / float64(r.sh.recordsPerRequest())
	v["serve.resp_bytes_per_rec"] = mean(respBytes) / float64(r.sh.recordsPerRequest())
	v["loadgen.cpu_ms_per_krec"] = ms(self1-self0) / recs * 1000
	lat := latenciesMS(measured)
	v["p99_ms"] = r.p99(lat)
	v["loadgen.lateness_p99_ms"], _ = nearestRank(late, 99)
	return median(lat), nil
}

// spans records the traced point's client and server spans and derives
// the per-hop metrics from them; it returns the traced point's p50.
// Request i's client span is its due-to-done latency, with children for
// the FIFO wait and the HTTP round trip; the matched server trace nests
// under the round trip, split at the hop stamps. A request whose server
// trace was never seen leaves its round trip unattributed; if none was
// seen, the per-hop metrics were not measured and the run fails.
func (r *serveRun) spans(rec *recorder, origin time.Duration, all []sample, warm time.Duration, traces map[int]obs.RequestTrace) (float64, error) {
	v := r.out.values
	var lat []float64
	var transport time.Duration
	var unattributed time.Duration
	matched := 0
	for i, s := range all {
		if s.due < warm {
			continue
		}
		lat = append(lat, latencyMS(s))
		run := "req-" + strconv.Itoa(i)
		id := rec.add(run, "client.request", 0, origin+s.due, origin+s.done)
		rec.add(run, "client.wait", id, origin+s.due, origin+s.sent)
		rt := rec.add(run, "http.roundtrip", id, origin+s.sent, origin+s.done)
		rec.add(run, "http.first_byte", rt, origin+s.sent, origin+s.firstByte)
		rec.add(run, "http.read", rt, origin+s.firstByte, origin+s.done)
		tr, ok := traces[i]
		if !ok {
			unattributed += s.done - s.sent
			continue
		}
		matched++
		dur := time.Duration(tr.DurationMicros) * time.Microsecond
		transport += s.done - s.sent - dur
		start := rec.since(time.Unix(0, tr.StartUnixNanos))
		sid := rec.add(run, "serve.server", rt, start, start+dur)
		prev := time.Duration(0)
		for _, h := range tr.Hops {
			off := time.Duration(h.OffsetMicros) * time.Microsecond
			rec.add(run, "serve."+h.Name, sid, start+prev, start+off)
			prev = off
		}
		rec.add(run, "serve.encode", sid, start+prev, start+dur)
	}
	for _, hop := range []string{"decode", "admit", "transform", "kernel", "lock", "observe", "encode", "server"} {
		v["serve."+hop+"_us"] = rec.meanMicros("serve." + hop)
	}
	if matched > 0 {
		v["http.transport_us"] = float64(transport) / float64(matched) / float64(time.Microsecond)
	}
	v["trace.unattributed_s"] = unattributed.Seconds()
	fmt.Fprintf(os.Stderr, "%s: traced point matched %d of %d requests to flight-recorder traces\n",
		r.opts.workload.name, matched, len(lat))
	if matched == 0 {
		return 0, fmt.Errorf("%s: no request of the traced point matched a /flightz trace", r.opts.workload.name)
	}
	return median(lat), nil
}

// flightPoller collects the traced server's request traces from /flightz
// every 250 ms, deduplicated by request index, until finish.
type flightPoller struct {
	url    string
	runID  uint64
	client *http.Client
	traces map[int]obs.RequestTrace
	stop   chan struct{}
	done   chan struct{}
}

func startFlightPoller(url string, runID uint64) *flightPoller {
	p := &flightPoller{
		url: url, runID: runID,
		client: &http.Client{Timeout: 5 * time.Second},
		traces: make(map[int]obs.RequestTrace),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	go func() {
		defer close(p.done)
		t := time.NewTicker(250 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				p.poll()
				return
			case <-t.C:
				p.poll()
			}
		}
	}()
	return p
}

func (p *flightPoller) poll() {
	var d obs.FlightDump
	if err := getJSON(p.client, p.url, &d); err != nil {
		fmt.Fprintln(os.Stderr, "flightz poll:", err)
		return
	}
	prefix := fmt.Sprintf("%016x", p.runID)
	for _, rt := range d.Traces {
		if len(rt.TraceID) != 32 || rt.TraceID[:16] != prefix {
			continue
		}
		if i, err := strconv.ParseUint(rt.TraceID[16:], 16, 64); err == nil {
			p.traces[int(i)] = rt
		}
	}
}

// finish takes a last poll and returns every trace seen.
func (p *flightPoller) finish() map[int]obs.RequestTrace {
	close(p.stop)
	<-p.done
	return p.traces
}

// selfCPU is the benchmark process's own user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
