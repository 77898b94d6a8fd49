package serve

// Crash-safety tests for the checkpoint layer: verdict continuity across
// a save/restore cycle, rejection of stale/corrupt/truncated files, the
// write-path failpoints, and the lifecycle hooks (periodic loop, final
// checkpoint on drain, /v1/checkpoint barrier endpoint).

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"crossfeature/internal/core"
	"crossfeature/internal/failpoint"
)

// mixedRecord interleaves normal and correlation-breaking records so the
// detector walks through real EWMA and hysteresis transitions.
func mixedRecord(i int) Record {
	if i%9 >= 6 {
		return anomalousRecord(i)
	}
	return normalRecord(i)
}

// newCheckpointPair builds two servers over the SAME model file and the
// SAME checkpoint path — the "before crash" and "after restart" processes.
func newCheckpointPair(t *testing.T, mutate func(*Config)) (a, b *Server, ckpt string) {
	t.Helper()
	dir := t.TempDir()
	model := filepath.Join(dir, "model.bin")
	ckpt = filepath.Join(dir, "streams.ckpt")
	writeTestBundle(t, model)
	mk := func() *Server {
		cfg := Config{
			ModelPath:      model,
			CheckpointPath: ckpt,
			Logf:           func(format string, args ...any) { t.Logf(format, args...) },
		}
		if mutate != nil {
			mutate(&cfg)
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	return mk(), mk(), ckpt
}

// TestCheckpointVerdictContinuity is the core crash-safety promise: a
// server restored from a checkpoint produces bit-identical verdicts, for
// every record after the checkpoint barrier, to the server that never
// went down.
func TestCheckpointVerdictContinuity(t *testing.T) {
	a, b, _ := newCheckpointPair(t, nil)
	tsA := httptest.NewServer(a.Handler())
	defer tsA.Close()

	before := records(40, mixedRecord)
	after := make([]Record, 0, 40)
	for i := 40; i < 80; i++ {
		after = append(after, mixedRecord(i))
	}

	if resp, _ := postScore(t, tsA.URL, ScoreRequest{Stream: "warm", Records: before}); resp.StatusCode != http.StatusOK {
		t.Fatalf("warmup status = %d", resp.StatusCode)
	}

	// Checkpoint barrier via the HTTP endpoint the crash tests use.
	resp, err := http.Post(tsA.URL+"/v1/checkpoint", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var info CheckpointInfo
	json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || info.Streams != 1 || info.Bytes == 0 {
		t.Fatalf("checkpoint barrier: status %d info %+v", resp.StatusCode, info)
	}

	// The uninterrupted server keeps scoring: the reference timeline.
	_, want := postScore(t, tsA.URL, ScoreRequest{Stream: "warm", Records: after})

	// The restarted server restores the barrier state and sees the same
	// post-barrier records.
	if n := b.RestoreCheckpoint(); n != 1 {
		t.Fatalf("restored %d streams, want 1", n)
	}
	tsB := httptest.NewServer(b.Handler())
	defer tsB.Close()
	_, got := postScore(t, tsB.URL, ScoreRequest{Stream: "warm", Records: after})
	if !reflect.DeepEqual(want.Results, got.Results) {
		t.Errorf("restored verdicts diverged from the uninterrupted run:\nwant %+v\ngot  %+v", want.Results, got.Results)
	}

	// Sanity: the warm state mattered — a cold stream scoring the same
	// records disagrees with the restored one.
	_, cold := postScore(t, tsB.URL, ScoreRequest{Stream: "cold-compare", Records: after})
	if reflect.DeepEqual(cold.Results, got.Results) {
		t.Error("cold stream matched restored stream; restore proved nothing")
	}

	st := b.Stats()
	if st.StreamsRestored != 1 {
		t.Errorf("streams restored counter = %d, want 1", st.StreamsRestored)
	}
	// "warm" was restored, "cold-compare" was created cold: exactly one
	// cold start.
	if st.StreamColdStarts != 1 {
		t.Errorf("cold starts = %d, want 1", st.StreamColdStarts)
	}
	if st.LastRestoreError != "" {
		t.Errorf("clean restore left an error: %q", st.LastRestoreError)
	}
}

// TestCheckpointRestoreLiveTrafficWins pins the restore-vs-traffic race:
// a stream scored before the (slow) restore finishes keeps its live
// state; the checkpointed copy is discarded.
func TestCheckpointRestoreLiveTrafficWins(t *testing.T) {
	a, b, _ := newCheckpointPair(t, nil)
	tsA := httptest.NewServer(a.Handler())
	defer tsA.Close()
	postScore(t, tsA.URL, ScoreRequest{Stream: "contested", Records: records(30, mixedRecord)})
	if _, err := a.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// Traffic arrives on the restarted server before the restore runs.
	tsB := httptest.NewServer(b.Handler())
	defer tsB.Close()
	_, live := postScore(t, tsB.URL, ScoreRequest{Stream: "contested", Records: records(3, normalRecord)})
	if n := b.RestoreCheckpoint(); n != 0 {
		t.Fatalf("restore overwrote a live stream: %d inserted", n)
	}

	// Continuity holds from the LIVE state, not the checkpoint: scoring
	// continues exactly where the live stream left off.
	_, next := postScore(t, tsB.URL, ScoreRequest{Stream: "contested", Records: records(1, normalRecord)})
	if next.Results[0].Smoothed == live.Results[2].Smoothed {
		// EWMA moved; identical smoothed values would suggest a reset.
		t.Log("smoothed unchanged across one record (possible but suspicious)")
	}
	if b.Stats().StreamsRestored != 0 {
		t.Errorf("streams restored = %d, want 0", b.Stats().StreamsRestored)
	}
}

func TestCheckpointRestoreSkipsStale(t *testing.T) {
	a, b, _ := newCheckpointPair(t, func(c *Config) {
		c.CheckpointMaxAge = time.Nanosecond
	})
	tsA := httptest.NewServer(a.Handler())
	defer tsA.Close()
	postScore(t, tsA.URL, ScoreRequest{Stream: "old", Records: records(5, normalRecord)})
	if _, err := a.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(time.Millisecond)

	if n := b.RestoreCheckpoint(); n != 0 {
		t.Fatalf("stale checkpoint restored %d streams", n)
	}
	if st := b.Stats(); st.LastRestoreError == "" || !strings.Contains(st.LastRestoreError, "stale") {
		t.Errorf("stale skip not surfaced: %q", st.LastRestoreError)
	}
	if b.streams.len() != 0 {
		t.Errorf("stale restore left %d streams", b.streams.len())
	}
}

func TestCheckpointRestoreSkipsCorrupt(t *testing.T) {
	a, b, ckpt := newCheckpointPair(t, nil)
	tsA := httptest.NewServer(a.Handler())
	defer tsA.Close()
	postScore(t, tsA.URL, ScoreRequest{Stream: "x", Records: records(5, normalRecord)})
	if _, err := a.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x55
	if err := os.WriteFile(ckpt, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if n := b.RestoreCheckpoint(); n != 0 {
		t.Fatalf("corrupt checkpoint restored %d streams", n)
	}
	if st := b.Stats(); st.LastRestoreError == "" {
		t.Error("corrupt skip not surfaced in stats")
	}
	// The server is fully usable afterwards.
	tsB := httptest.NewServer(b.Handler())
	defer tsB.Close()
	if resp, _ := postScore(t, tsB.URL, ScoreRequest{Stream: "x", Records: records(1, normalRecord)}); resp.StatusCode != http.StatusOK {
		t.Errorf("scoring after corrupt restore: status %d", resp.StatusCode)
	}
}

// TestCheckpointRestoreMissingIsQuiet pins the common case: first boot,
// no checkpoint yet — no error surfaced, nothing restored.
func TestCheckpointRestoreMissingIsQuiet(t *testing.T) {
	_, b, _ := newCheckpointPair(t, nil)
	if n := b.RestoreCheckpoint(); n != 0 {
		t.Fatalf("restored %d streams from a missing file", n)
	}
	if st := b.Stats(); st.LastRestoreError != "" {
		t.Errorf("missing checkpoint surfaced an error: %q", st.LastRestoreError)
	}
}

// TestCheckpointTruncationSweep truncates a real checkpoint at every byte
// offset; every prefix must be rejected as corrupt — never a panic, never
// a partial restore.
func TestCheckpointTruncationSweep(t *testing.T) {
	a, b, ckpt := newCheckpointPair(t, nil)
	tsA := httptest.NewServer(a.Handler())
	defer tsA.Close()
	postScore(t, tsA.URL, ScoreRequest{Stream: "s1", Records: records(5, mixedRecord)})
	postScore(t, tsA.URL, ScoreRequest{Stream: "s2", Records: records(5, normalRecord)})
	if _, err := a.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(data); cut++ {
		if err := os.WriteFile(ckpt, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		outcome, restored, rerr := b.restoreCheckpoint()
		if outcome != "corrupt" || restored != 0 || rerr == nil {
			t.Fatalf("truncation at %d of %d: outcome=%q restored=%d err=%v",
				cut, len(data), outcome, restored, rerr)
		}
	}
}

// TestDecodeCheckpointRejectsStructuralDamage hits decode paths a pure
// truncation cannot reach (the frame CRC catches byte flips first, so
// these payloads are built directly).
func TestDecodeCheckpointRejectsStructuralDamage(t *testing.T) {
	st := streamState{id: "n1", state: make([]byte, core.OnlineStateLen)}
	payload := encodeCheckpointStates([]streamState{st})

	cases := []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"short header", func(p []byte) []byte { return p[:10] }},
		{"count overruns data", func(p []byte) []byte { p[19] = 200; return p }},
		{"zero-length id", func(p []byte) []byte { p[21] = 0; return p }},
		{"trailing garbage", func(p []byte) []byte { return append(p, 0xAA) }},
	}
	for _, tc := range cases {
		t.Run(strings.ReplaceAll(tc.name, " ", "-"), func(t *testing.T) {
			mut := tc.mut(append([]byte(nil), payload...))
			if _, _, _, err := decodeCheckpoint(mut); !errors.Is(err, core.ErrSnapshotCorrupt) {
				t.Errorf("error = %v, want ErrSnapshotCorrupt", err)
			}
		})
	}
}

// TestCheckpointRestoreSkipsOverlongState pins the per-state length
// check: a CRC-valid entry whose state blob runs one byte past
// core.OnlineStateLen is skipped and counted like any other bad blob,
// not restored from its first OnlineStateLen bytes.
func TestCheckpointRestoreSkipsOverlongState(t *testing.T) {
	a, b, ckpt := newCheckpointPair(t, nil)
	tsA := httptest.NewServer(a.Handler())
	defer tsA.Close()
	postScore(t, tsA.URL, ScoreRequest{Stream: "exact", Records: records(5, mixedRecord)})
	postScore(t, tsA.URL, ScoreRequest{Stream: "long", Records: records(5, mixedRecord)})
	states, _ := a.streams.snapshot()
	for i := range states {
		if states[i].id == "long" {
			states[i].state = append(states[i].state, 0)
		}
	}
	var frame bytes.Buffer
	if err := core.WriteFrame(&frame, checkpointMagic, checkpointVersion, encodeCheckpointStates(states)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ckpt, frame.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	if n := b.RestoreCheckpoint(); n != 1 {
		t.Errorf("restored %d streams, want 1 (the 59-byte state skipped)", n)
	}
	if got := b.met.checkpointStreamsSkipped.Value(); got != 1 {
		t.Errorf("streams skipped = %d, want 1", got)
	}
	if st := b.Stats(); st.LastRestoreError != "" {
		t.Errorf("one bad entry failed the whole restore: %q", st.LastRestoreError)
	}
}

// TestCheckpointWriteFailpoints drives the two checkpoint write-path
// failpoints: an injected error must keep the previous checkpoint intact
// and count a failure; a torn (partial) write must install a file the
// restore path rejects as corrupt.
func TestCheckpointWriteFailpoints(t *testing.T) {
	a, b, ckpt := newCheckpointPair(t, nil)
	tsA := httptest.NewServer(a.Handler())
	defer tsA.Close()
	postScore(t, tsA.URL, ScoreRequest{Stream: "keep", Records: records(10, mixedRecord)})
	if _, err := a.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("payload error keeps previous checkpoint", func(t *testing.T) {
		if err := failpoint.Arm("serve/checkpoint/payload", "error(disk full)"); err != nil {
			t.Fatal(err)
		}
		defer failpoint.Disarm("serve/checkpoint/payload")
		if _, err := a.Checkpoint(); !errors.Is(err, failpoint.ErrInjected) {
			t.Fatalf("injected checkpoint failure returned %v", err)
		}
		after, err := os.ReadFile(ckpt)
		if err != nil {
			t.Fatal(err)
		}
		if string(before) != string(after) {
			t.Error("failed checkpoint altered the installed file")
		}
		if a.Stats().CheckpointFailures == 0 {
			t.Error("checkpoint failure not counted")
		}
	})

	t.Run("pre-rename crash keeps previous checkpoint", func(t *testing.T) {
		if err := failpoint.Arm("serve/checkpoint/pre-rename", "error(crash)"); err != nil {
			t.Fatal(err)
		}
		defer failpoint.Disarm("serve/checkpoint/pre-rename")
		if _, err := a.Checkpoint(); !errors.Is(err, failpoint.ErrInjected) {
			t.Fatalf("pre-rename failure returned %v", err)
		}
		after, err := os.ReadFile(ckpt)
		if err != nil {
			t.Fatal(err)
		}
		if string(before) != string(after) {
			t.Error("interrupted checkpoint altered the installed file")
		}
	})

	t.Run("torn write is rejected on restore", func(t *testing.T) {
		if err := failpoint.Arm("serve/checkpoint/payload", "partial(30)"); err != nil {
			t.Fatal(err)
		}
		// The torn write reports success (the crash in this scenario came
		// after the rename) — the restore must refuse the result.
		if _, err := a.Checkpoint(); err != nil {
			failpoint.Disarm("serve/checkpoint/payload")
			t.Fatalf("torn checkpoint surfaced an error: %v", err)
		}
		failpoint.Disarm("serve/checkpoint/payload")
		outcome, restored, rerr := b.restoreCheckpoint()
		if outcome != "corrupt" || restored != 0 || rerr == nil {
			t.Fatalf("torn checkpoint restore: outcome=%q restored=%d err=%v", outcome, restored, rerr)
		}
		// Recovery: a clean checkpoint over the torn file restores again.
		if _, err := a.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if n := b.RestoreCheckpoint(); n != 1 {
			t.Errorf("recovery restore = %d streams, want 1", n)
		}
	})
}

// TestCheckpointSkipsBusyStream pins the bounded-duration promise: a
// stream whose lock is held (a wedged or long-running handler) is skipped
// and counted, not awaited.
func TestCheckpointSkipsBusyStream(t *testing.T) {
	a, _, _ := newCheckpointPair(t, nil)
	tsA := httptest.NewServer(a.Handler())
	defer tsA.Close()
	postScore(t, tsA.URL, ScoreRequest{Stream: "busy", Records: records(2, normalRecord)})
	postScore(t, tsA.URL, ScoreRequest{Stream: "idle", Records: records(2, normalRecord)})

	st := a.streams.get("busy", func() *core.OnlineDetector { t.Fatal("stream should exist"); return nil })
	st.mu.Lock()
	done := make(chan CheckpointInfo, 1)
	go func() {
		info, err := a.Checkpoint()
		if err != nil {
			t.Error(err)
		}
		done <- info
	}()
	select {
	case info := <-done:
		if info.Streams != 1 || info.Skipped != 1 {
			t.Errorf("checkpoint with a wedged stream: %+v, want 1 written 1 skipped", info)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("checkpoint blocked on a busy stream")
	}
	st.mu.Unlock()
}

// TestCheckpointDisabled pins behavior without a CheckpointPath: the
// method errors, the endpoint answers 409, and Run needs no checkpoint
// plumbing.
func TestCheckpointDisabled(t *testing.T) {
	s, _ := newTestServer(t, nil)
	if _, err := s.Checkpoint(); err == nil {
		t.Error("Checkpoint succeeded with no path configured")
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/checkpoint", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("checkpoint-disabled status = %d, want 409", resp.StatusCode)
	}
	select {
	case <-s.restoreDone:
	default:
		t.Error("restoreDone not closed with checkpointing disabled")
	}
}

// TestRunRestoresAndWritesFinalCheckpoint drives the full lifecycle
// through Run: boot-time restore, readiness gating until it finishes, and
// a final checkpoint on clean shutdown.
func TestRunRestoresAndWritesFinalCheckpoint(t *testing.T) {
	a, b, ckpt := newCheckpointPair(t, func(c *Config) {
		c.CheckpointInterval = time.Hour // periodic loop stays quiet
	})
	tsA := httptest.NewServer(a.Handler())
	postScore(t, tsA.URL, ScoreRequest{Stream: "durable", Records: records(25, mixedRecord)})
	if _, err := a.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	tsA.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- b.Run(ctx, ln) }()
	url := "http://" + ln.Addr().String()

	// Readiness comes up only after the restore completes.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("server never became ready after restore")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if b.Stats().StreamsRestored != 1 {
		t.Errorf("Run restored %d streams, want 1", b.Stats().StreamsRestored)
	}

	// Score a second stream, then shut down cleanly: the final checkpoint
	// must hold both.
	postScore(t, url, ScoreRequest{Stream: "late", Records: records(5, normalRecord)})
	cancel()
	select {
	case err := <-runDone:
		if err != nil {
			t.Fatalf("Run returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run never returned")
	}

	f, err := os.Open(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	payload, err := core.ReadFrame(f, checkpointMagic, checkpointVersion)
	if err != nil {
		t.Fatal(err)
	}
	_, _, states, err := decodeCheckpoint(payload)
	if err != nil {
		t.Fatal(err)
	}
	ids := make(map[string]bool, len(states))
	for _, st := range states {
		ids[st.id] = true
	}
	if len(states) != 2 || !ids["durable"] || !ids["late"] {
		t.Errorf("final checkpoint holds %v, want {durable, late}", ids)
	}
}

// TestRunPeriodicCheckpoint asserts the background loop writes without
// any explicit trigger.
func TestRunPeriodicCheckpoint(t *testing.T) {
	_, b, ckpt := newCheckpointPair(t, func(c *Config) {
		c.CheckpointInterval = 20 * time.Millisecond
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runDone := make(chan error, 1)
	go func() { runDone <- b.Run(ctx, ln) }()
	url := "http://" + ln.Addr().String()

	postScore(t, url, ScoreRequest{Stream: "tick", Records: records(5, normalRecord)})
	deadline := time.Now().Add(5 * time.Second)
	for {
		if b.Stats().CheckpointWrites > 0 {
			if _, err := os.Stat(ckpt); err != nil {
				t.Fatalf("checkpoint counted but file missing: %v", err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("periodic checkpoint never fired")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	<-runDone
}

// FuzzDecodeCheckpoint feeds arbitrary CFAC payloads (the bytes a
// CRC-valid frame carries) to decodeCheckpoint. It must never panic; a
// rejection wraps core.ErrSnapshotCorrupt; an accepted payload is
// canonical, so encodeCheckpoint reproduces it byte for byte; and every
// decoded state goes through RestoreState, the restore loop's per-state
// check, which accepts exactly the core.OnlineStateLen blobs AppendState
// reproduces. Seeds: a three-stream payload, its truncations
// (the truncation sweep's cuts, inside the frame) and the same payload
// with one state a byte too long.
func FuzzDecodeCheckpoint(f *testing.F) {
	states := benchStates(f, 3)
	payload := encodeCheckpoint(states, time.Unix(0, 1), 1)
	for cut := 0; cut <= len(payload); cut++ {
		f.Add(payload[:cut])
	}
	states[1].state = append(states[1].state, 0)
	f.Add(encodeCheckpoint(states, time.Unix(0, 1), 1))

	f.Fuzz(func(t *testing.T, payload []byte) {
		writtenAt, gen, states, err := decodeCheckpoint(payload)
		if err != nil {
			if !errors.Is(err, core.ErrSnapshotCorrupt) {
				t.Fatalf("rejection %v does not wrap ErrSnapshotCorrupt", err)
			}
			return
		}
		if again := encodeCheckpoint(states, writtenAt, gen); !bytes.Equal(again, payload) {
			t.Fatalf("accepted payload is not canonical:\n got %x\nwant %x", again, payload)
		}
		var od core.OnlineDetector
		for _, st := range states {
			if err := od.RestoreState(st.state); err != nil {
				if !errors.Is(err, core.ErrOnlineState) {
					t.Fatalf("stream %q: rejection %v does not wrap ErrOnlineState", st.id, err)
				}
				continue
			}
			if again := od.AppendState(nil); !bytes.Equal(again, st.state) {
				t.Fatalf("stream %q: accepted state re-encodes to %x, want %x", st.id, again, st.state)
			}
		}
	})
}

// encodeCheckpointStates is a test shim: encode with a fresh timestamp so
// staleness never interferes with structural-damage cases.
func encodeCheckpointStates(states []streamState) []byte {
	return encodeCheckpoint(states, time.Now(), 1)
}

func BenchmarkCheckpointEncode(b *testing.B) {
	states := benchStates(b, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		encodeCheckpoint(states, time.Unix(0, 1), 1)
	}
}

func BenchmarkCheckpointRestore(b *testing.B) {
	states := benchStates(b, 1024)
	payload := encodeCheckpoint(states, time.Now(), 1)
	path := filepath.Join(b.TempDir(), "model.bin")
	writeTestBundle(b, path)
	bundle, err := core.LoadBundleFile(path)
	if err != nil {
		b.Fatal(err)
	}
	det := bundle.Detector()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, decoded, err := decodeCheckpoint(payload)
		if err != nil {
			b.Fatal(err)
		}
		// Mirror restoreCheckpoint: one detector slab for the whole table.
		slab := core.NewOnlineDetectors(det, len(decoded))
		for si, st := range decoded {
			if err := slab[si].RestoreState(st.state); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchStates builds n realistic per-stream state blobs.
func benchStates(b testing.TB, n int) []streamState {
	b.Helper()
	path := filepath.Join(b.TempDir(), "model.bin")
	writeTestBundle(b, path)
	bundle, err := core.LoadBundleFile(path)
	if err != nil {
		b.Fatal(err)
	}
	det := bundle.Detector()
	states := make([]streamState, 0, n)
	for i := 0; i < n; i++ {
		od := core.NewOnlineDetector(det)
		for j := 0; j < 8; j++ {
			rec := normalRecord(i + j)
			if x, err := bundle.Discretizer.Transform(rec.Values); err == nil {
				od.Observe(x)
			}
		}
		states = append(states, streamState{id: "bench-" + string(rune('a'+i%26)) + string(rune('0'+i%10)), state: od.AppendState(nil)})
	}
	return states
}
