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
//     pass through the compiled kernels (ScoreAll picks columnar or
//     row-major by batch size and model);
//  3. each item then takes only its own stream's shard and stream locks
//     to run the precomputed scores through the detector's EWMA and
//     hysteresis via ObserveScore.
//
// Verdicts are bit-identical to the per-record path: ScoreAll is pinned
// to Score, and ObserveScore(raw) is exactly what
// Observe computes internally. Returns per-item results in input order
// and the total records scored.
//
// lvl is the brownout level the request is served under. From level 1
// the Explain-style per-feature metrics are skipped; every level scores
// through the bundle's one analyzer and keeps stream state.
// tr, when non-nil, receives per-stage hop stamps ("transform" after
// discretisation, "kernel" after the batch kernel pass, "lock" at the
// first stream-lock acquisition, "observe" once verdicts are folded), the
// batch's anomaly count, and one score exemplar per verdict histogram —
// per request, not per record, so tracing costs O(1) allocations however
// fat the batch.
func (s *Server) scoreItems(lm *loadedModel, items []ScoreRequest, lvl int, tr *obs.ActiveTrace) ([]BatchItemResult, int) {
	results := make([]BatchItemResult, len(items))
	// Every record is discretised into one slab: flat holds the valid
	// rows in order, each a width-long window of slab, and rows[i] is
	// item i's run of flat. An item with a bad record gives its windows
	// back to the next item.
	disc := lm.bundle.Discretizer
	width := len(disc.Cuts)
	n := 0
	for _, it := range items {
		n += len(it.Records)
	}
	slab := make([]int, n*width)
	flat := make([][]int, 0, n)
	rows := make([][][]int, len(items))
	for i, it := range items {
		results[i].Stream = it.Stream
		if it.Stream == "" || len(it.Records) == 0 {
			results[i].Error = "score item needs a stream id and at least one record"
			continue
		}
		start := len(flat)
		for _, rec := range it.Records {
			off := len(flat) * width
			x := slab[off : off+width : off+width]
			if err := disc.TransformInto(x, rec.Values); err != nil {
				results[i].Error = "bad record: " + err.Error()
				break
			}
			flat = append(flat, x)
		}
		if results[i].Error != "" {
			flat = flat[:start]
			continue
		}
		rows[i] = flat[start:]
	}
	tr.Hop("transform")

	det := lm.detector
	an := det.Analyzer
	scores := an.ScoreAll(ml.DatasetOf(an.Attrs, flat), det.Scorer)
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
		rr := s.statefulResults(lm, items[i], xs, recScores, feat, tr)
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
// detector under the stream lock.
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
	degraded := degradedMode(lvl)
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
