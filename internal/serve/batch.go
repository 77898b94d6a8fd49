package serve

// Batch scoring. One HTTP request carries records for many streams; the
// whole request is scored through the model once (compiled batch kernels
// via Analyzer.ScoreAll — every record sees the same analyzer, so the
// flattened rows form one schema-homogeneous dataset) and only the cheap
// stateful tail (EWMA, hysteresis) runs per stream. This is what turns
// the service from lock-bound to throughput-bound: the expensive part of
// scoring amortises across the batch, and the per-stream part touches
// only that stream's shard and lock.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"

	"crossfeature/internal/core"
	"crossfeature/internal/ml"
	"crossfeature/internal/obs"
)

// batchKernelMin is the flattened row count below which scoreItems skips
// the columnar dataset build and scores row-major via ScoreEvents: the
// per-call cost of assembling columns and postings only pays for itself
// with enough rows behind it. Both paths are pinned bit-identical to
// Detector.Score, so the cutover can never change a verdict.
const batchKernelMin = 8

// BatchScoreRequest scores records for several streams in one request.
type BatchScoreRequest struct {
	Items []ScoreRequest `json:"items"`
}

// BatchItemResult is one stream's outcome inside a batch. Exactly one of
// Results and Error is populated: an item with a malformed record fails
// atomically — none of its records touch the stream's detector — while
// the rest of the batch scores normally.
type BatchItemResult struct {
	Stream  string         `json:"stream"`
	Results []RecordResult `json:"results,omitempty"`
	Error   string         `json:"error,omitempty"`
}

// BatchScoreResponse is the reply to a BatchScoreRequest. Items are in
// request order. Degraded mirrors ScoreResponse.Degraded: the brownout
// mode the whole batch was served under, empty at full fidelity.
type BatchScoreResponse struct {
	ModelVersion  uint64            `json:"model_version"`
	Items         []BatchItemResult `json:"items"`
	RecordsScored int               `json:"records_scored"`
	Degraded      string            `json:"degraded,omitempty"`
}

// scoreItems is the one scoring pipeline behind both /v1/score and
// /v1/score-batch:
//
//  1. every item's records are discretised up front — an item with a bad
//     record fails atomically, before any detector state mutates;
//  2. all valid rows are flattened and scored in one Analyzer.ScoreAll
//     pass through the compiled batch kernels (row-major ScoreEvents for
//     tiny flat counts);
//  3. each item then takes only its own stream's shard and stream locks
//     to run the precomputed scores through the detector's EWMA and
//     hysteresis via ObserveScore.
//
// Verdicts are bit-identical to the per-record path: ScoreAll and
// ScoreEvents are pinned to Score, and ObserveScore(raw) is exactly what
// Observe computes internally. Returns per-item results in input order
// and the total records scored.
//
// lvl is the brownout level the request is served under. Level 1 skips
// the Explain-style per-feature metrics; level 2 and above (when the
// bundle carries an NB fallback) scores through the compiled NB kernel
// *statelessly* — the per-stream detectors are never touched, because
// ObserveScore folds raw scores into EWMA/hysteresis state against the
// PRIMARY detector's threshold, and NB-scale scores would poison stream
// state that outlives the brownout. Degraded verdicts are point-in-time:
// Smoothed is the raw score and Alarm mirrors Anomaly, with no hysteresis
// edges. That also skips the shard and stream locks — the stateful tail is
// exactly the part worth shedding under overload.
// tr, when non-nil, receives per-stage hop stamps ("transform" after
// discretisation, "kernel" after the batch kernel pass, "lock" at the
// first stream-lock acquisition, "observe" once verdicts are folded), the
// batch's anomaly count, and one score exemplar per verdict histogram —
// per request, not per record, so tracing costs O(1) allocations however
// fat the batch.
func (s *Server) scoreItems(lm *loadedModel, items []ScoreRequest, lvl int, tr *obs.ActiveTrace) ([]BatchItemResult, int) {
	det := lm.detector
	stateless := false
	if lvl >= brownoutNBOnly && lm.fallback != nil {
		det = lm.fallback
		stateless = true
	}
	results := make([]BatchItemResult, len(items))
	rows := make([][][]int, len(items))
	total := 0
	for i, it := range items {
		results[i].Stream = it.Stream
		if it.Stream == "" || len(it.Records) == 0 {
			results[i].Error = "score item needs a stream id and at least one record"
			continue
		}
		xs := make([][]int, 0, len(it.Records))
		for _, rec := range it.Records {
			x, err := lm.bundle.Discretizer.Transform(rec.Values)
			if err != nil {
				results[i].Error = "bad record: " + err.Error()
				xs = nil
				break
			}
			xs = append(xs, x)
		}
		if xs == nil {
			continue
		}
		rows[i] = xs
		total += len(xs)
	}
	tr.Hop("transform")

	flat := make([][]int, 0, total)
	for _, xs := range rows {
		flat = append(flat, xs...)
	}
	an := det.Analyzer
	var scores []float64
	if len(flat) >= batchKernelMin {
		scores = an.ScoreAll(ml.DatasetOf(an.Attrs, flat), det.Scorer)
	} else {
		scores = an.ScoreEvents(flat, det.Scorer)
	}
	tr.Hop("kernel")

	feat := s.featureMetricsFor(lm)
	if lvl >= brownoutNoExtras {
		feat = nil
	}
	scored, off := 0, 0
	for i := range items {
		xs := rows[i]
		if xs == nil {
			continue
		}
		recScores := scores[off : off+len(xs)]
		off += len(xs)
		var rr []RecordResult
		if stateless {
			rr = statelessResults(items[i].Records, recScores, det.Threshold, s.met)
		} else {
			rr = s.statefulResults(lm, items[i], xs, recScores, feat, tr)
		}
		results[i].Results = rr
		scored += len(rr)
	}
	if scored > 0 {
		s.met.brownoutVerdict(lvl).Add(uint64(scored))
	}
	tr.Hop("observe")
	if tr != nil {
		// One exemplar per verdict histogram per request: the last score of
		// each verdict stands for the batch, keeping the cost independent of
		// record count. SetExemplar ignores the NaN sentinels.
		anomalies := 0
		lastNormal, lastAnomaly := math.NaN(), math.NaN()
		for i := range results {
			for _, r := range results[i].Results {
				if r.Anomaly {
					anomalies++
				}
				if r.Invalid {
					continue
				}
				if r.Anomaly {
					lastAnomaly = r.Score
				} else {
					lastNormal = r.Score
				}
			}
		}
		tr.RT.Anomalies = anomalies
		s.met.scoreNormal.SetExemplar(lastNormal, tr.TraceID())
		s.met.scoreAnomaly.SetExemplar(lastAnomaly, tr.TraceID())
	}
	return results, scored
}

// statefulResults runs one item's precomputed scores through its stream's
// detector under the stream lock — the full-fidelity (levels 0-1) tail.
func (s *Server) statefulResults(lm *loadedModel, item ScoreRequest, xs [][]int, recScores []float64, feat *core.ScoreMetrics, tr *obs.ActiveTrace) []RecordResult {
	st := s.streams.get(item.Stream, func() *core.OnlineDetector {
		return s.newOnlineDetector(lm)
	})
	rr := make([]RecordResult, 0, len(xs))
	st.mu.Lock()
	tr.HopOnce("lock")
	if st.version != lm.version {
		st.od.SwapDetector(lm.detector)
		st.version = lm.version
	}
	for j, raw := range recScores {
		state := st.od.ObserveScore(raw)
		out := RecordResult{
			Time:     item.Records[j].Time,
			Score:    state.Score,
			Smoothed: state.Smoothed,
			Anomaly:  state.Score < lm.detector.Threshold,
			Alarm:    state.Alarm,
			Raised:   state.Raised,
			Cleared:  state.Cleared,
		}
		if !isFinite(state.Score) {
			out.Score, out.Anomaly, out.Invalid = -1, true, true
			s.met.invalid.Inc()
		} else if out.Anomaly {
			s.met.scoreAnomaly.Observe(state.Score)
		} else {
			s.met.scoreNormal.Observe(state.Score)
		}
		if !isFinite(state.Smoothed) {
			out.Smoothed = -1
		}
		if feat != nil {
			feat.Observe(lm.bundle.Analyzer.Explain(xs[j]))
		}
		rr = append(rr, out)
	}
	st.mu.Unlock()
	return rr
}

// statelessResults builds point-in-time verdicts from NB fallback scores
// at brownout level 2+: threshold comparison only, no stream state read
// or written. Smoothed repeats the raw score and Alarm mirrors Anomaly so
// a client keying off either field still gets a sane (if undamped)
// signal; Raised/Cleared stay false because there is no hysteresis to
// edge-trigger.
func statelessResults(records []Record, recScores []float64, threshold float64, met *serverMetrics) []RecordResult {
	rr := make([]RecordResult, 0, len(recScores))
	for j, raw := range recScores {
		anomaly := raw < threshold
		out := RecordResult{
			Time:     records[j].Time,
			Score:    raw,
			Smoothed: raw,
			Anomaly:  anomaly,
			Alarm:    anomaly,
		}
		if !isFinite(raw) {
			out.Score, out.Smoothed, out.Anomaly, out.Alarm, out.Invalid = -1, -1, true, true, true
			met.invalid.Inc()
		} else if anomaly {
			met.scoreAnomaly.Observe(raw)
		} else {
			met.scoreNormal.Observe(raw)
		}
		rr = append(rr, out)
	}
	return rr
}

// handleScoreBatch is POST /v1/score-batch: N streams' records in, one
// framed response with per-record verdicts out. The whole batch occupies
// one queue slot but is admitted against the record budget, so a flood
// of fat batches sheds as early as the same records spread over many
// single requests would. A 429 carries a Retry-After priced from the
// live record backlog and the observed per-record service time.
func (s *Server) handleScoreBatch(w http.ResponseWriter, r *http.Request) {
	s.met.requests.Inc()
	s.met.batchRequests.Inc()
	tr, sw := s.traceRequest(w, r, "score-batch")
	w = sw
	defer s.finishRequest(tr, sw)
	exit, ok := s.gateEnter(w)
	if !ok {
		return
	}
	defer exit()
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()

	var req BatchScoreRequest
	if !s.decodeBody(ctx, w, r, s.cfg.MaxBatchBodyBytes, func(b []byte) error { return decodeBatchRequest(b, &req) }) {
		return
	}
	tr.Hop("decode")
	if len(req.Items) == 0 {
		s.met.badRequests.Inc()
		writeJSONError(w, http.StatusBadRequest, "batch score request needs at least one item")
		return
	}
	n := 0
	for _, it := range req.Items {
		n += len(it.Records)
	}
	if n > s.cfg.MaxBatchRecords {
		s.met.badRequests.Inc()
		writeJSONError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("batch of %d records exceeds the %d-record limit", n, s.cfg.MaxBatchRecords))
		return
	}
	s.met.batchRecords.Observe(float64(n))
	tr.RT.Records = n
	if len(req.Items) == 1 {
		tr.RT.Stream = req.Items[0].Stream
	}
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
		for _, it := range req.Items {
			hook(it.Stream)
		}
	}

	lm := s.model.current()
	lvl := s.brown.level()
	items, scored := s.scoreItems(lm, req.Items, lvl, tr)
	bad := 0
	for i := range items {
		if items[i].Error != "" {
			bad++
		}
	}
	if bad > 0 {
		s.met.badRequests.Add(uint64(bad))
	}
	s.met.scored.Add(uint64(scored))
	degraded := degradedMode(lvl, lm.fallback != nil)
	tr.RT.Degraded = degraded
	if degraded != "" {
		w.Header().Set(degradedHeader, degraded)
	}
	writeJSON(w, http.StatusOK, BatchScoreResponse{
		ModelVersion:  lm.version,
		Items:         items,
		RecordsScored: scored,
		Degraded:      degraded,
	})
}
