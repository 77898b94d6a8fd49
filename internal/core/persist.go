package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"

	"crossfeature/internal/failpoint"
	"crossfeature/internal/features"
	"crossfeature/internal/ml/c45"
	"crossfeature/internal/ml/nbayes"
	"crossfeature/internal/ml/ripper"
)

// Durable cfa files (model snapshots, serve checkpoints) carry a fixed
// frame header in front of their payload so a loader can tell a valid
// file from a truncated, corrupted or foreign/legacy one *before*
// handing bytes to the payload decoder (gob panics or misbehaves on
// garbage). Layout, all integers big-endian:
//
//	offset size
//	0      4    magic (4 ASCII bytes naming the file kind, e.g. "CFAS")
//	4      2    format version
//	6      4    CRC32-C (Castagnoli) of the payload
//	10     8    payload length in bytes
//	18     n    payload
//
// The file must end exactly at the payload: trailing bytes are treated
// as corruption, as is any length or checksum mismatch. Model snapshots
// use magic "CFAS" with a gob payload; the serve checkpoint format
// reuses the same frame (WriteFrame/ReadFrame) under its own magic.
const (
	snapshotMagic   = "CFAS"
	snapshotVersion = 1
	// FrameHeaderLen is the fixed size of the frame header in bytes.
	FrameHeaderLen = 18
	snapshotHdrLen = FrameHeaderLen
	// snapshotMaxLen caps the declared payload length so a corrupt header
	// cannot drive a multi-gigabyte allocation.
	snapshotMaxLen = 1 << 31
)

var snapshotCRC = crc32.MakeTable(crc32.Castagnoli)

// Failpoints on the durable-write path; disarmed in production, armed by
// the chaos suites to manufacture crashes and torn files on demand.
var (
	fpPersistPayload = failpoint.At("core/persist/payload")
	fpPersistRename  = failpoint.At("core/persist/pre-rename")
)

// ErrSnapshotFormat marks files that are not versioned cfa snapshots at
// all: wrong magic (legacy raw-gob model files, arbitrary files) or a
// format version newer than this binary understands.
var ErrSnapshotFormat = errors.New("unrecognised model snapshot format")

// ErrSnapshotCorrupt marks files that carry the snapshot header but fail
// validation: truncated payload, checksum mismatch, trailing garbage or
// an undecodable payload.
var ErrSnapshotCorrupt = errors.New("model snapshot corrupt")

// RegisterGobModels makes the concrete classifier types gob-encodable
// behind the ml.Classifier interface. The snapshot codec calls it
// automatically; callers embedding an Analyzer in their own gob streams
// must call it before encoding or decoding.
func RegisterGobModels() {
	gob.Register(&c45.Tree{})
	gob.Register(&ripper.RuleSet{})
	gob.Register(&nbayes.Model{})
}

// WriteFrame writes payload under a versioned, CRC-checked frame header.
// magic must be exactly 4 ASCII bytes naming the file kind.
func WriteFrame(w io.Writer, magic string, version uint16, payload []byte) error {
	if len(magic) != 4 {
		return fmt.Errorf("core: frame magic %q must be 4 bytes", magic)
	}
	var hdr [FrameHeaderLen]byte
	copy(hdr[:4], magic)
	binary.BigEndian.PutUint16(hdr[4:6], version)
	binary.BigEndian.PutUint32(hdr[6:10], crc32.Checksum(payload, snapshotCRC))
	binary.BigEndian.PutUint64(hdr[10:18], uint64(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("core: write frame header: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("core: write frame payload: %w", err)
	}
	return nil
}

// ReadFrame validates a frame written by WriteFrame — magic, version,
// length, checksum — and returns its payload. Every failure mode maps to
// ErrSnapshotFormat (not one of ours, or a version this build does not
// read) or ErrSnapshotCorrupt (damaged), so callers holding previous
// state can keep it on any error.
func ReadFrame(r io.Reader, magic string, version uint16) ([]byte, error) {
	var hdr [FrameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: header truncated (%v)", ErrSnapshotCorrupt, err)
	}
	if string(hdr[:4]) != magic {
		return nil, fmt.Errorf("%w: bad magic %q, want %q (legacy unversioned file?)", ErrSnapshotFormat, hdr[:4], magic)
	}
	if ver := binary.BigEndian.Uint16(hdr[4:6]); ver != version {
		return nil, fmt.Errorf("%w: file version %d, this build reads version %d",
			ErrSnapshotFormat, ver, version)
	}
	wantCRC := binary.BigEndian.Uint32(hdr[6:10])
	length := binary.BigEndian.Uint64(hdr[10:18])
	if length > snapshotMaxLen {
		return nil, fmt.Errorf("%w: implausible payload length %d", ErrSnapshotCorrupt, length)
	}
	payload := bytes.NewBuffer(make([]byte, 0, int(length)))
	n, err := io.Copy(payload, io.LimitReader(r, int64(length)))
	if err != nil {
		return nil, fmt.Errorf("%w: reading payload: %v", ErrSnapshotCorrupt, err)
	}
	if uint64(n) < length {
		return nil, fmt.Errorf("%w: payload truncated at %d of %d bytes", ErrSnapshotCorrupt, n, length)
	}
	if extra, _ := io.CopyN(io.Discard, r, 1); extra != 0 {
		return nil, fmt.Errorf("%w: trailing data after %d-byte payload", ErrSnapshotCorrupt, length)
	}
	if got := crc32.Checksum(payload.Bytes(), snapshotCRC); got != wantCRC {
		return nil, fmt.Errorf("%w: checksum mismatch (file %08x, payload %08x)", ErrSnapshotCorrupt, wantCRC, got)
	}
	return payload.Bytes(), nil
}

// WriteSnapshot writes v as a versioned, checksummed snapshot.
func WriteSnapshot(w io.Writer, v any) error {
	RegisterGobModels()
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(v); err != nil {
		return fmt.Errorf("core: encode snapshot: %w", err)
	}
	return WriteFrame(w, snapshotMagic, snapshotVersion, payload.Bytes())
}

// ReadSnapshot validates a snapshot written by WriteSnapshot — magic,
// version, length, checksum — and only then gob-decodes the payload into
// v. Every failure mode maps to ErrSnapshotFormat or ErrSnapshotCorrupt
// so callers can distinguish "not one of ours" from "damaged".
func ReadSnapshot(r io.Reader, v any) error {
	RegisterGobModels()
	payload, err := ReadFrame(r, snapshotMagic, snapshotVersion)
	if err != nil {
		return err
	}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(v); err != nil {
		return fmt.Errorf("%w: decode payload: %v", ErrSnapshotCorrupt, err)
	}
	return nil
}

// AtomicWriteFile writes a file atomically: write produces the content
// into a temp file in path's directory, which is flushed to disk and only
// then renamed over path. A crash (or write error) at any point leaves
// either the old file or the new one in place — never a half-written
// file. Exposed so other durable artifacts (the serve checkpoint) share
// one battle-tested install sequence.
func AtomicWriteFile(path string, write func(io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("core: create temp file: %w", err)
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err = write(tmp); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return fmt.Errorf("core: sync %s: %w", filepath.Base(path), err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("core: close %s: %w", filepath.Base(path), err)
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("core: install %s: %w", filepath.Base(path), err)
	}
	// Best-effort directory sync so the rename itself is durable.
	if d, derr := os.Open(dir); derr == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// WriteSnapshotFile writes v to path atomically via AtomicWriteFile. The
// payload write runs through the core/persist/payload failpoint (torn and
// failed writes on demand) and core/persist/pre-rename fires between the
// payload landing and the rename, where a crash is most interesting.
func WriteSnapshotFile(path string, v any) error {
	return AtomicWriteFile(path, func(w io.Writer) error {
		if err := WriteSnapshot(fpPersistPayload.Writer(w), v); err != nil {
			return err
		}
		if err := fpPersistRename.Hit(); err != nil {
			return fmt.Errorf("core: write model file: %w", err)
		}
		return nil
	})
}

// ReadSnapshotFile reads a snapshot written by WriteSnapshotFile. Errors
// carry the path and stay on one line, fit for an operator-facing CLI.
func ReadSnapshotFile(path string, v any) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("core: open model file: %w", err)
	}
	defer f.Close()
	if err := ReadSnapshot(f, v); err != nil {
		return fmt.Errorf("model %s: %w", path, err)
	}
	return nil
}

// Save serialises the analyzer as a versioned snapshot.
func (a *Analyzer) Save(w io.Writer) error {
	return WriteSnapshot(w, a)
}

// Load deserialises an analyzer written by Save.
func Load(r io.Reader) (*Analyzer, error) {
	var a Analyzer
	if err := ReadSnapshot(r, &a); err != nil {
		return nil, err
	}
	return &a, nil
}

// SaveFile writes the analyzer to path atomically.
func (a *Analyzer) SaveFile(path string) error {
	return WriteSnapshotFile(path, a)
}

// LoadFile reads an analyzer from path.
func LoadFile(path string) (*Analyzer, error) {
	var a Analyzer
	if err := ReadSnapshotFile(path, &a); err != nil {
		return nil, err
	}
	return &a, nil
}

// Bundle is the deployable model artifact `cfa train` emits and the
// scoring paths (`cfa detect/curve/inspect/serve`) consume: the trained
// analyzer, the discretiser that maps raw audit vectors onto its schema,
// and the calibrated operating point.
type Bundle struct {
	Analyzer    *Analyzer
	Discretizer *features.Discretizer
	Threshold   float64
	Scorer      Scorer

	// Fallback, when present, is a cheap naive-Bayes ensemble trained on
	// the same discretised dataset as Analyzer, with its own calibrated
	// threshold. The serving layer's brownout mode scores through it when
	// the primary ensemble can no longer keep up with offered load: NB
	// inference compiles to flat count-table lookups, the cheapest kernel
	// of the three learners. Nil when the primary learner is already NBC
	// (the fallback would be the primary) and in bundles written before
	// the field existed — gob leaves absent fields zero, so old snapshots
	// load unchanged.
	Fallback          *Analyzer
	FallbackThreshold float64
}

// Validate checks the structural invariants a loaded bundle must satisfy
// before it may serve traffic. Load goes through this, so a snapshot that
// decodes but is semantically hollow or mis-shaped (nil analyzer, no
// sub-models, schema mismatch, a Naive Bayes table whose dimensions Fit
// could not have produced, non-finite threshold) is rejected like any
// other corruption instead of panicking at compile or scoring time.
func (b *Bundle) Validate() error {
	switch {
	case b.Analyzer == nil:
		return fmt.Errorf("%w: bundle has no analyzer", ErrSnapshotCorrupt)
	case b.Analyzer.NumModels() == 0:
		return fmt.Errorf("%w: bundle analyzer has no sub-models", ErrSnapshotCorrupt)
	case b.Discretizer == nil:
		return fmt.Errorf("%w: bundle has no discretizer", ErrSnapshotCorrupt)
	case len(b.Discretizer.Cuts) != len(b.Analyzer.Attrs):
		return fmt.Errorf("%w: discretizer width %d does not match analyzer schema %d",
			ErrSnapshotCorrupt, len(b.Discretizer.Cuts), len(b.Analyzer.Attrs))
	case math.IsNaN(b.Threshold) || math.IsInf(b.Threshold, 0):
		return fmt.Errorf("%w: non-finite threshold %v", ErrSnapshotCorrupt, b.Threshold)
	case b.Scorer != MatchCount && b.Scorer != Probability:
		return fmt.Errorf("%w: unknown scorer %d", ErrSnapshotCorrupt, int(b.Scorer))
	}
	if err := b.Discretizer.Validate(); err != nil {
		return fmt.Errorf("%w: bundle discretizer: %v", ErrSnapshotCorrupt, err)
	}
	if err := b.Analyzer.checkShape(); err != nil {
		return fmt.Errorf("%w: bundle analyzer: %v", ErrSnapshotCorrupt, err)
	}
	if err := b.checkCardinalities(b.Analyzer); err != nil {
		return fmt.Errorf("%w: bundle analyzer: %v", ErrSnapshotCorrupt, err)
	}
	if b.Fallback != nil {
		switch {
		case b.Fallback.NumModels() == 0:
			return fmt.Errorf("%w: bundle fallback analyzer has no sub-models", ErrSnapshotCorrupt)
		case len(b.Fallback.Attrs) != len(b.Analyzer.Attrs):
			return fmt.Errorf("%w: fallback schema width %d does not match primary %d",
				ErrSnapshotCorrupt, len(b.Fallback.Attrs), len(b.Analyzer.Attrs))
		case math.IsNaN(b.FallbackThreshold) || math.IsInf(b.FallbackThreshold, 0):
			return fmt.Errorf("%w: non-finite fallback threshold %v", ErrSnapshotCorrupt, b.FallbackThreshold)
		}
		if err := b.Fallback.checkShape(); err != nil {
			return fmt.Errorf("%w: bundle fallback analyzer: %v", ErrSnapshotCorrupt, err)
		}
		if err := b.checkCardinalities(b.Fallback); err != nil {
			return fmt.Errorf("%w: bundle fallback analyzer: %v", ErrSnapshotCorrupt, err)
		}
	}
	return nil
}

// checkCardinalities verifies that every attribute of a has as many
// values as the bundle's discretiser produces for that feature, so no
// transformed record can index past a sub-model's tables.
func (b *Bundle) checkCardinalities(a *Analyzer) error {
	for j, at := range a.Attrs {
		if c := b.Discretizer.Cardinality(j); at.Card != c {
			return fmt.Errorf("attribute %d has cardinality %d, discretizer gives %d", j, at.Card, c)
		}
	}
	return nil
}

// checkShape verifies that the analyzer has one model slot per attribute
// and that every Naive Bayes sub-model has exactly the table dimensions
// Fit produces for its attribute (the check Fuse applies too).
func (a *Analyzer) checkShape() error {
	if len(a.Models) != len(a.Attrs) {
		return fmt.Errorf("%d sub-model slots for %d attributes", len(a.Models), len(a.Attrs))
	}
	for i, m := range a.Models {
		if nb, ok := m.(*nbayes.Model); ok {
			if err := nb.CheckShape(a.Attrs, i); err != nil {
				return fmt.Errorf("sub-model %d: %v", i, err)
			}
		}
	}
	return nil
}

// Detector builds the bundle's detector at its calibrated threshold.
func (b *Bundle) Detector() *Detector {
	return &Detector{Analyzer: b.Analyzer, Scorer: b.Scorer, Threshold: b.Threshold}
}

// FallbackDetector builds the degraded-mode NB detector at its own
// calibrated threshold, or nil when the bundle carries no fallback. The
// combination rule is shared with the primary so scores from both stay in
// the same [0,1] range.
func (b *Bundle) FallbackDetector() *Detector {
	if b.Fallback == nil {
		return nil
	}
	return &Detector{Analyzer: b.Fallback, Scorer: b.Scorer, Threshold: b.FallbackThreshold}
}

// SaveFile writes the bundle to path atomically.
func (b *Bundle) SaveFile(path string) error {
	if err := b.Validate(); err != nil {
		return fmt.Errorf("core: refusing to save invalid bundle: %w", err)
	}
	return WriteSnapshotFile(path, b)
}

// LoadBundleFile reads and fully validates a bundle from path: header,
// checksum, gob payload and structural invariants all pass before the
// bundle is returned, so a caller holding an old model can safely keep it
// on any error.
func LoadBundleFile(path string) (*Bundle, error) {
	var b Bundle
	if err := ReadSnapshotFile(path, &b); err != nil {
		return nil, err
	}
	if err := b.Validate(); err != nil {
		return nil, fmt.Errorf("model %s: %w", path, err)
	}
	return &b, nil
}
