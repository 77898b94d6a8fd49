package serve

// Durable per-stream detector state. A `cfa serve` crash or redeploy used
// to discard every stream's EWMA and hysteresis position, so all streams
// restarted cold and the verdicts around the restart window were garbage.
// The checkpointer periodically snapshots the stream table into a
// versioned, CRC-checked file (the same frame format as model snapshots,
// under its own magic) with atomic temp-file+rename writes; on boot the
// server restores whatever checkpoint it finds, skipping stale or corrupt
// files with a counter — a bad checkpoint can cost warm state, never
// availability.
//
// Checkpoint file layout (inside the core.WriteFrame CFAC envelope, which
// contributes magic, version, CRC-32C and length):
//
//	offset size
//	0      8    written-at, unix nanoseconds (staleness check)
//	8      8    model generation at write time (informational)
//	16     4    stream count
//	...         per stream: u16 id length, id bytes,
//	            u16 state length, core.OnlineDetector state blob
//
// All integers big-endian, matching the frame header. Streams appear in
// snapshot order — hottest first within each shard of the (sharded)
// stream table; the format itself is order-agnostic, and restore hashes
// each id back onto whatever shard layout the restoring process runs, so
// a checkpoint round-trips byte-identically across different -shards
// settings.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"crossfeature/internal/core"
	"crossfeature/internal/failpoint"
)

const (
	checkpointMagic   = "CFAC"
	checkpointVersion = 1
	// checkpointMaxID caps a stream id inside a checkpoint; ids over the
	// u16 length prefix cannot be encoded and are skipped at write time.
	checkpointMaxID = 1<<16 - 1
)

// Failpoints on the checkpoint write path, mirroring the persist pair.
var (
	fpCheckpointPayload = failpoint.At("serve/checkpoint/payload")
	fpCheckpointRename  = failpoint.At("serve/checkpoint/pre-rename")
)

// CheckpointInfo describes one completed checkpoint write.
type CheckpointInfo struct {
	At      time.Time `json:"at"`
	Streams int       `json:"streams"`
	Skipped int       `json:"skipped_streams"`
	Bytes   int       `json:"bytes"`
}

// opEvent records the latest outcome of an operational event (reload,
// restore, checkpoint) for the /statz surface: the error string is empty
// on success.
type opEvent struct {
	err string
	at  time.Time
}

func encodeCheckpoint(states []streamState, writtenAt time.Time, modelGen uint64) []byte {
	size := 20
	for _, st := range states {
		size += 4 + len(st.id) + len(st.state)
	}
	buf := make([]byte, 0, size)
	buf = binary.BigEndian.AppendUint64(buf, uint64(writtenAt.UnixNano()))
	buf = binary.BigEndian.AppendUint64(buf, modelGen)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(states)))
	for _, st := range states {
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(st.id)))
		buf = append(buf, st.id...)
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(st.state)))
		buf = append(buf, st.state...)
	}
	return buf
}

// decodeCheckpoint parses a checkpoint payload (already CRC-verified by
// core.ReadFrame). Structural damage maps to core.ErrSnapshotCorrupt so
// callers treat it like any other corrupt file. All stream ids are
// carved from one shared string slab rather than converted one by one —
// with thousands of streams the per-id conversions used to dominate the
// restore path's allocation profile.
func decodeCheckpoint(payload []byte) (writtenAt time.Time, modelGen uint64, states []streamState, err error) {
	if len(payload) < 20 {
		return time.Time{}, 0, nil, fmt.Errorf("%w: checkpoint payload %d bytes, want >= 20", core.ErrSnapshotCorrupt, len(payload))
	}
	writtenAt = time.Unix(0, int64(binary.BigEndian.Uint64(payload[:8])))
	modelGen = binary.BigEndian.Uint64(payload[8:16])
	count := binary.BigEndian.Uint32(payload[16:20])
	rest := payload[20:]
	states = make([]streamState, 0, min(int(count), 1<<16))
	// One walk records each id's span (payload position, cumulative slab
	// offset); the ids are then copied into an exactly-sized slab and
	// carved into substrings after the end-of-frame check.
	idPos := make([]int, 0, min(int(count), 1<<16))
	idOff := make([]int, 1, min(int(count), 1<<16)+1)
	totalID := 0
	for i := uint32(0); i < count; i++ {
		if len(rest) < 2 {
			return time.Time{}, 0, nil, fmt.Errorf("%w: checkpoint truncated in stream %d id length", core.ErrSnapshotCorrupt, i)
		}
		idLen := int(binary.BigEndian.Uint16(rest))
		rest = rest[2:]
		if idLen == 0 || len(rest) < idLen {
			return time.Time{}, 0, nil, fmt.Errorf("%w: checkpoint truncated in stream %d id", core.ErrSnapshotCorrupt, i)
		}
		idPos = append(idPos, len(payload)-len(rest))
		totalID += idLen
		idOff = append(idOff, totalID)
		rest = rest[idLen:]
		if len(rest) < 2 {
			return time.Time{}, 0, nil, fmt.Errorf("%w: checkpoint truncated in stream %d state length", core.ErrSnapshotCorrupt, i)
		}
		stLen := int(binary.BigEndian.Uint16(rest))
		rest = rest[2:]
		if len(rest) < stLen {
			return time.Time{}, 0, nil, fmt.Errorf("%w: checkpoint truncated in stream %d state", core.ErrSnapshotCorrupt, i)
		}
		states = append(states, streamState{state: rest[:stLen]})
		rest = rest[stLen:]
	}
	if len(rest) != 0 {
		return time.Time{}, 0, nil, fmt.Errorf("%w: %d trailing bytes after %d checkpoint streams", core.ErrSnapshotCorrupt, len(rest), count)
	}
	idBuf := make([]byte, totalID)
	for i, pos := range idPos {
		copy(idBuf[idOff[i]:idOff[i+1]], payload[pos:])
	}
	ids := string(idBuf)
	for i := range states {
		states[i].id = ids[idOff[i]:idOff[i+1]]
	}
	return writtenAt, modelGen, states, nil
}

// Checkpoint snapshots the stream table and atomically writes it to the
// configured path. It is safe to call concurrently with scoring (streams
// are encoded under their own locks) and with itself (writes serialise on
// the atomic temp+rename). Returns an error — and leaves any previous
// checkpoint file untouched — when the write fails.
func (s *Server) Checkpoint() (CheckpointInfo, error) {
	if s.cfg.CheckpointPath == "" {
		return CheckpointInfo{}, errors.New("serve: checkpointing disabled (no CheckpointPath)")
	}
	start := time.Now()
	states, skipped := s.streams.snapshot()
	kept := states[:0]
	for _, st := range states {
		if len(st.id) > checkpointMaxID {
			skipped++
			continue
		}
		kept = append(kept, st)
	}
	states = kept
	var gen uint64
	if lm := s.model.current(); lm != nil {
		gen = lm.version
	}
	payload := encodeCheckpoint(states, start, gen)
	err := core.AtomicWriteFile(s.cfg.CheckpointPath, func(w io.Writer) error {
		if err := core.WriteFrame(fpCheckpointPayload.Writer(w), checkpointMagic, checkpointVersion, payload); err != nil {
			return err
		}
		if err := fpCheckpointRename.Hit(); err != nil {
			return fmt.Errorf("serve: write checkpoint: %w", err)
		}
		return nil
	})
	if skipped > 0 {
		s.met.checkpointStreamsSkipped.Add(uint64(skipped))
	}
	if err != nil {
		s.met.checkpointFailures.Inc()
		return CheckpointInfo{}, err
	}
	info := CheckpointInfo{
		At:      start,
		Streams: len(states),
		Skipped: skipped,
		Bytes:   core.FrameHeaderLen + len(payload),
	}
	s.lastCheckpoint.Store(&info)
	s.met.checkpointWrites.Inc()
	s.met.checkpointSeconds.Observe(time.Since(start).Seconds())
	s.flightEvent("checkpoint", fmt.Sprintf("%d streams, %d bytes", info.Streams, info.Bytes))
	// The flight recorder's persistence piggybacks on the checkpoint
	// cadence: whatever dump is on disk when the process dies hard is at
	// most one checkpoint interval old. Failure costs the fresher dump,
	// never the checkpoint.
	if err := s.writeFlightDump(s.flightPath()); err != nil {
		s.cfg.Logf("serve: flight dump alongside checkpoint failed: %v", err)
	}
	return info, nil
}

// RestoreCheckpoint loads the configured checkpoint file and warms the
// stream table from it. It is deliberately infallible from the caller's
// point of view: a missing, corrupt or stale checkpoint costs warm state,
// never startup — each outcome is counted and, on failure, surfaced via
// /statz. Streams already live in the table (scored while the restore
// ran) keep their live state. Returns the number of streams restored.
func (s *Server) RestoreCheckpoint() int {
	outcome, restored, err := s.restoreCheckpoint()
	s.met.restoreOutcome(outcome).Inc()
	ev := opEvent{at: time.Now()}
	if err != nil {
		ev.err = fmt.Sprintf("checkpoint restore (%s): %v", outcome, err)
		s.cfg.Logf("serve: checkpoint restore: %s skipped: %v", outcome, err)
	} else if outcome == "restored" {
		s.cfg.Logf("serve: checkpoint restored %d streams from %s", restored, s.cfg.CheckpointPath)
	}
	s.flightEvent("restore", fmt.Sprintf("%s: %d streams", outcome, restored))
	s.lastRestore.Store(&ev)
	return restored
}

// restoreCheckpoint does the work; outcome is one of missing, corrupt,
// stale, restored.
func (s *Server) restoreCheckpoint() (outcome string, restored int, err error) {
	f, err := os.Open(s.cfg.CheckpointPath)
	if err != nil {
		if os.IsNotExist(err) {
			return "missing", 0, nil
		}
		return "corrupt", 0, err
	}
	defer f.Close()
	payload, err := core.ReadFrame(f, checkpointMagic, checkpointVersion)
	if err != nil {
		return "corrupt", 0, err
	}
	writtenAt, _, states, err := decodeCheckpoint(payload)
	if err != nil {
		return "corrupt", 0, err
	}
	if age := time.Since(writtenAt); s.cfg.CheckpointMaxAge > 0 && age > s.cfg.CheckpointMaxAge {
		return "stale", 0, fmt.Errorf("checkpoint is %s old, max age %s", age.Round(time.Second), s.cfg.CheckpointMaxAge)
	}
	lm := s.model.current()
	// One slab allocation covers every stream's detector: restoring a big
	// table allocated one detector per stream before, which dominated the
	// restore profile (BenchmarkCheckpointRestore).
	slab := core.NewOnlineDetectors(lm.detector, len(states))
	for si, st := range states {
		od := &slab[si]
		if rerr := od.RestoreState(st.state); rerr != nil {
			// CRC passed but a state blob fails validation: an encoder bug
			// or a version skew inside one entry. Skip the stream — it
			// restarts cold — and keep restoring the rest.
			s.met.checkpointStreamsSkipped.Inc()
			s.cfg.Logf("serve: checkpoint stream %q skipped: %v", st.id, rerr)
			continue
		}
		s.applyDetectorKnobs(od)
		if s.streams.insert(st.id, od) {
			restored++
		}
	}
	s.met.streamsRestored.Add(uint64(restored))
	return "restored", restored, nil
}

// runCheckpointLoop writes checkpoints every interval until ctx is done.
// It waits for the boot restore to finish first so an early checkpoint
// cannot clobber a restorable file with a nearly empty table.
func (s *Server) runCheckpointLoop(ctx context.Context) {
	select {
	case <-s.restoreDone:
	case <-ctx.Done():
		return
	}
	t := time.NewTicker(s.cfg.CheckpointInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if _, err := s.Checkpoint(); err != nil {
				s.cfg.Logf("serve: periodic checkpoint failed: %v", err)
			}
		}
	}
}

// handleCheckpoint forces a checkpoint now: POST /v1/checkpoint. The
// crash-recovery tests use it to place a known barrier; operators get a
// pre-deploy "save everything" button for free.
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	info, err := s.Checkpoint()
	if err != nil {
		code := http.StatusInternalServerError
		if s.cfg.CheckpointPath == "" {
			code = http.StatusConflict
		}
		writeJSONError(w, code, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, info)
}
