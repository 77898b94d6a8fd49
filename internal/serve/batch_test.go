package serve

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"

	"crossfeature/internal/core"
)

func TestScoreBatchEndpoint(t *testing.T) {
	s, _ := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, br := postScoreBatch(t, ts.URL, BatchScoreRequest{Items: []ScoreRequest{
		{Stream: "node-1", Records: records(20, normalRecord)},
		{Stream: "node-2", Records: records(30, anomalousRecord)},
	}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if br.ModelVersion != 1 || br.RecordsScored != 50 || len(br.Items) != 2 {
		t.Fatalf("batch response = %+v", br)
	}
	if len(br.Items[0].Results) != 20 || br.Items[0].Stream != "node-1" {
		t.Errorf("item 0 = %q with %d results", br.Items[0].Stream, len(br.Items[0].Results))
	}
	for i, r := range br.Items[0].Results {
		if r.Invalid || r.Alarm {
			t.Errorf("normal stream record %d: %+v", i, r)
		}
	}
	// The anomalous stream's sustained run raises its alarm; node-1 is
	// untouched by it.
	last := br.Items[1].Results[len(br.Items[1].Results)-1]
	if !last.Alarm {
		t.Error("sustained anomaly never raised the batch stream's alarm")
	}
	_, br = postScoreBatch(t, ts.URL, BatchScoreRequest{Items: []ScoreRequest{
		{Stream: "node-1", Records: records(1, normalRecord)},
	}})
	if br.Items[0].Results[0].Alarm {
		t.Error("node-2 incident leaked into node-1's stream state")
	}

	st := s.Stats()
	if st.BatchRequests != 2 || st.RecordsScored != 51 {
		t.Errorf("stats = %+v", st)
	}
}

func TestScoreBatchPartialFailure(t *testing.T) {
	s, _ := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	bad := ScoreRequest{Stream: "bad", Records: []Record{
		{Values: []float64{1, 2, 3, 4}},
		{Values: []float64{1, 2}}, // wrong width: fails the whole item
	}}
	resp, br := postScoreBatch(t, ts.URL, BatchScoreRequest{Items: []ScoreRequest{
		{Stream: "good", Records: records(3, normalRecord)},
		bad,
		{Stream: "", Records: records(1, normalRecord)}, // invalid item
	}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("partial failure status = %d, want 200 with per-item errors", resp.StatusCode)
	}
	if len(br.Items) != 3 {
		t.Fatalf("items = %d, want one per request item", len(br.Items))
	}
	if br.Items[0].Error != "" || len(br.Items[0].Results) != 3 {
		t.Errorf("good item degraded: %+v", br.Items[0])
	}
	if br.Items[1].Error == "" || br.Items[1].Results != nil {
		t.Errorf("bad item not rejected atomically: %+v", br.Items[1])
	}
	if br.Items[2].Error == "" {
		t.Errorf("invalid item not rejected: %+v", br.Items[2])
	}
	if br.RecordsScored != 3 {
		t.Errorf("records scored = %d, want 3 (failed items score nothing)", br.RecordsScored)
	}
	// Atomicity: a failed item never reaches the stream table, so the bad
	// item's first (valid) record touched no detector state at all.
	if s.streams.len() != 1 {
		t.Errorf("streams = %d, want 1 (failed/invalid items create no stream)", s.streams.len())
	}
	if st := s.Stats(); st.BadRequests != 2 {
		t.Errorf("bad requests = %d, want 2 (one per failed item)", st.BadRequests)
	}
}

func TestScoreBatchRejectsOversizedAndEmpty(t *testing.T) {
	s, _ := newTestServer(t, func(c *Config) { c.MaxBatchRecords = 10 })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, _ := postScoreBatch(t, ts.URL, BatchScoreRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch status = %d, want 400", resp.StatusCode)
	}
	resp, _ = postScoreBatch(t, ts.URL, BatchScoreRequest{Items: []ScoreRequest{
		{Stream: "a", Records: records(6, normalRecord)},
		{Stream: "b", Records: records(6, normalRecord)},
	}})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("over-limit batch status = %d, want 413", resp.StatusCode)
	}
	if st := s.Stats(); st.RecordsScored != 0 {
		t.Errorf("rejected batches scored %d records", st.RecordsScored)
	}
}

// TestBatchShardedDifferential is the acceptance differential: a sharded
// server fed through /v1/score-batch must produce byte-identical
// per-stream verdict sequences to a single-shard server fed the same
// records one request at a time through /v1/score, for the same
// per-stream interleaving.
func TestBatchShardedDifferential(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.bin")
	writeTestBundle(t, path)
	mk := func(shards int) (*Server, *httptest.Server) {
		s, err := New(Config{
			ModelPath: path,
			Shards:    shards,
			Logf:      func(format string, args ...any) { t.Logf(format, args...) },
		})
		if err != nil {
			t.Fatal(err)
		}
		return s, httptest.NewServer(s.Handler())
	}
	_, single := mk(1)
	defer single.Close()
	_, sharded := mk(8)
	defer sharded.Close()

	const streams, rounds, perRound = 6, 8, 5
	rng := rand.New(rand.NewSource(42))
	gen := func(stream, i int) Record {
		if (stream+i)%3 == 0 {
			return anomalousRecord(i)
		}
		return normalRecord(i)
	}
	// Pre-draw every record so both servers see the exact same values.
	recs := make([][]Record, streams)
	for sid := range recs {
		for r := 0; r < rounds*perRound; r++ {
			recs[sid] = append(recs[sid], gen(sid, int(rng.Int31n(100))))
		}
	}

	perRecord := make([][]RecordResult, streams)
	batched := make([][]RecordResult, streams)
	for round := 0; round < rounds; round++ {
		items := make([]ScoreRequest, 0, streams)
		for sid := 0; sid < streams; sid++ {
			chunk := recs[sid][round*perRound : (round+1)*perRound]
			items = append(items, ScoreRequest{Stream: fmt.Sprintf("s-%d", sid), Records: chunk})
			// The per-record path sees the same chunk one record per
			// request — same per-stream order, maximally different framing.
			for _, rec := range chunk {
				resp, sr := postScore(t, single.URL, ScoreRequest{
					Stream:  fmt.Sprintf("s-%d", sid),
					Records: []Record{rec},
				})
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("per-record path status = %d", resp.StatusCode)
				}
				perRecord[sid] = append(perRecord[sid], sr.Results...)
			}
		}
		resp, br := postScoreBatch(t, sharded.URL, BatchScoreRequest{Items: items})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch path status = %d", resp.StatusCode)
		}
		for sid, item := range br.Items {
			if item.Error != "" {
				t.Fatalf("batch item %d error: %s", sid, item.Error)
			}
			batched[sid] = append(batched[sid], item.Results...)
		}
	}
	for sid := 0; sid < streams; sid++ {
		a, err := json.Marshal(perRecord[sid])
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(batched[sid])
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Errorf("stream %d: sharded batch verdicts diverge from single-table per-record:\nper-record: %s\nbatched:    %s", sid, a, b)
		}
	}
}

// TestChaosShardTableHammer races get/evict/snapshot/insert/len across
// every shard under -race (the serve-chaos target soaks it): no lost
// streams, no deadlocks, capacity respected throughout.
func TestChaosShardTableHammer(t *testing.T) {
	defer leakCheck(t)()
	det := writeTestBundle(t, filepath.Join(t.TempDir(), "m.bin")).Detector()
	const maxStreams, shards, workers, opsPerWorker = 64, 8, 8, 400
	tbl := newStreamTable(maxStreams, shards, nil)
	var evictions sync.Map
	tbl.onEvict = func(id string) { evictions.Store(id, true) }
	tbl.onCreate = func(id string) {
		// Callbacks run outside the shard lock, so calling back into the
		// table must be safe — this is the regression the callback-ordering
		// fix pins. Deadlock here fails the test by timeout.
		_ = tbl.len()
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < opsPerWorker; i++ {
				id := fmt.Sprintf("h-%d", rng.Int31n(200))
				switch i % 5 {
				case 0, 1, 2:
					st := tbl.get(id, func() *core.OnlineDetector { return core.NewOnlineDetector(det) })
					st.mu.Lock()
					st.od.ObserveScore(0.5)
					st.mu.Unlock()
				case 3:
					states, _ := tbl.snapshot()
					for _, s := range states {
						if len(s.state) != core.OnlineStateLen {
							t.Errorf("snapshot state %q has %d bytes", s.id, len(s.state))
							return
						}
					}
				case 4:
					od := core.NewOnlineDetector(det)
					tbl.insert(fmt.Sprintf("r-%d", rng.Int31n(50)), od)
				}
			}
		}(w)
	}
	wg.Wait()

	perShard := (maxStreams + shards - 1) / shards
	total := 0
	for i := 0; i < tbl.numShards(); i++ {
		n := tbl.shardLen(i)
		if n > perShard {
			t.Errorf("shard %d holds %d streams, cap %d", i, n, perShard)
		}
		total += n
	}
	if total != tbl.len() {
		t.Errorf("shard lengths sum to %d, len() = %d", total, tbl.len())
	}
	if total > maxStreams+shards-1 {
		t.Errorf("table holds %d streams, bound %d", total, maxStreams+shards-1)
	}
}

// TestCheckpointShardedRoundTrip proves checkpoint state is portable
// across shard layouts: a table snapshotted at one shard count restores
// byte-identically into another, stream for stream.
func TestCheckpointShardedRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.bin")
	ckpt := filepath.Join(dir, "streams.ckpt")
	writeTestBundle(t, path)
	mk := func(shards int) *Server {
		s, err := New(Config{
			ModelPath:      path,
			Shards:         shards,
			CheckpointPath: ckpt,
			Logf:           func(format string, args ...any) { t.Logf(format, args...) },
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	a := mk(8)
	ts := httptest.NewServer(a.Handler())
	defer ts.Close()
	const streams = 37
	items := make([]ScoreRequest, 0, streams)
	for i := 0; i < streams; i++ {
		items = append(items, ScoreRequest{
			Stream:  fmt.Sprintf("node-%d", i),
			Records: records(3+i%4, normalRecord),
		})
	}
	if resp, _ := postScoreBatch(t, ts.URL, BatchScoreRequest{Items: items}); resp.StatusCode != http.StatusOK {
		t.Fatalf("warmup status = %d", resp.StatusCode)
	}
	info, err := a.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if info.Streams != streams || info.Skipped != 0 {
		t.Fatalf("checkpoint info = %+v, want %d streams, 0 skipped", info, streams)
	}
	stateOf := func(s *Server) map[string]string {
		states, skipped := s.streams.snapshot()
		if skipped != 0 {
			t.Fatalf("snapshot skipped %d idle streams", skipped)
		}
		m := make(map[string]string, len(states))
		for _, st := range states {
			m[st.id] = string(st.state)
		}
		return m
	}
	want := stateOf(a)

	// Restore into a different shard layout: every stream lands (hashed
	// onto its new shard) with byte-identical detector state.
	b := mk(2)
	if restored := b.RestoreCheckpoint(); restored != streams {
		t.Fatalf("restored %d streams into 2-shard table, want %d", restored, streams)
	}
	got := stateOf(b)
	if len(got) != len(want) {
		t.Fatalf("restored table has %d streams, want %d", len(got), len(want))
	}
	for id, st := range want {
		if got[id] != st {
			t.Errorf("stream %q state diverged across the 8->2 shard round-trip", id)
		}
	}

	// And the re-encoded checkpoint payload is byte-identical modulo
	// ordering: re-checkpoint from b, restore into a third layout, same
	// states again.
	if _, err := b.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	c := mk(16)
	if restored := c.RestoreCheckpoint(); restored != streams {
		t.Fatalf("restored %d streams into 16-shard table, want %d", restored, streams)
	}
	got = stateOf(c)
	for id, st := range want {
		if got[id] != st {
			t.Errorf("stream %q state diverged across the 2->16 shard round-trip", id)
		}
	}
}
