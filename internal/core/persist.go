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
	"slices"

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
//
// Snapshot version 2 payloads carry Naive Bayes models and C4.5 trees in
// their binary encodings (nbayes.Model and c45.Tree GobEncode); version 1
// payloads carry them as gob structs. ReadSnapshot reads both, and a
// build that reads only version 1 refuses a version 2 file with
// ErrSnapshotFormat instead of calling it corrupt.
const (
	snapshotMagic   = "CFAS"
	snapshotVersion = 2
	// snapshotOldest is the oldest snapshot version ReadSnapshot reads.
	snapshotOldest = 1
	// FrameHeaderLen is the fixed size of the frame header in bytes.
	FrameHeaderLen = 18
	snapshotHdrLen = FrameHeaderLen
	// snapshotMaxLen caps the declared payload length.
	snapshotMaxLen = 1 << 31
	// frameChunk is the most ReadFrame reserves on the header's word
	// alone: a longer payload grows with the bytes that actually arrive
	// (as Go's internal/saferio.ReadData does), so a corrupt header
	// cannot drive a multi-gigabyte allocation.
	frameChunk = 10 << 20
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
// must call it before encoding or decoding. Such a caller decoding a
// stream that an older build wrote gets each Naive Bayes model as an
// unexported legacy type that scores through PredictProba but compiles
// to no fused kernel; Load and ReadSnapshot convert those to
// *nbayes.Model.
//
// *nbayes.Model registers under nbGobName. The gob name *nbayes.Model
// belongs to the struct encoding earlier builds wrote, which gob will not
// decode into a type that has GobDecode, so that name maps to
// legacyNBModel.
func RegisterGobModels() {
	gob.Register(&c45.Tree{})
	gob.Register(&ripper.RuleSet{})
	gob.RegisterName(nbGobName, &nbayes.Model{})
	gob.RegisterName("*nbayes.Model", &legacyNBModel{})
}

// nbGobName names *nbayes.Model's binary encoding in a gob stream.
const nbGobName = "*nbayes.Model/2"

// legacyNBModel is *nbayes.Model as snapshot version 1 payloads carry it:
// the same fields, gob-encoded as a struct. It has no gob methods, and
// its one method exists because gob assigns each decoded model to
// ml.Classifier. ReadSnapshot converts every one to *nbayes.Model, so no
// caller of Load or LoadBundleFile sees this type.
type legacyNBModel nbayes.Model

// PredictProba implements ml.Classifier.
func (m *legacyNBModel) PredictProba(x []int) []float64 {
	return (*nbayes.Model)(m).PredictProba(x)
}

// upgradeModels converts each legacy Naive Bayes model of a decoded
// bundle or analyzer to *nbayes.Model, in place and without a copy.
func upgradeModels(v any) {
	switch v := v.(type) {
	case *Bundle:
		upgradeModels(v.Analyzer)
		upgradeModels(v.Fallback)
	case *Analyzer:
		if v == nil {
			return
		}
		for i, m := range v.Models {
			if m, ok := m.(*legacyNBModel); ok {
				v.Models[i] = (*nbayes.Model)(m)
			}
		}
	}
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
// state can keep it on any error. The version must match exactly.
func ReadFrame(r io.Reader, magic string, version uint16) ([]byte, error) {
	return readFrame(r, magic, version, version)
}

// readFrame is ReadFrame for a frame of any version from oldest to
// newest.
func readFrame(r io.Reader, magic string, oldest, newest uint16) ([]byte, error) {
	var hdr [FrameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: header truncated (%v)", ErrSnapshotCorrupt, err)
	}
	if string(hdr[:4]) != magic {
		return nil, fmt.Errorf("%w: bad magic %q, want %q (legacy unversioned file?)", ErrSnapshotFormat, hdr[:4], magic)
	}
	if ver := binary.BigEndian.Uint16(hdr[4:6]); ver < oldest || ver > newest {
		reads := fmt.Sprintf("version %d", newest)
		if oldest != newest {
			reads = fmt.Sprintf("versions %d to %d", oldest, newest)
		}
		return nil, fmt.Errorf("%w: file version %d, this build reads %s", ErrSnapshotFormat, ver, reads)
	}
	wantCRC := binary.BigEndian.Uint32(hdr[6:10])
	length := binary.BigEndian.Uint64(hdr[10:18])
	if length > snapshotMaxLen {
		return nil, fmt.Errorf("%w: implausible payload length %d", ErrSnapshotCorrupt, length)
	}
	// Read at most one chunk past what has arrived, so a payload up to
	// frameChunk takes one exact allocation and a header that overstates
	// its payload costs at most one chunk.
	payload := make([]byte, 0, min(length, frameChunk))
	for uint64(len(payload)) < length {
		step := int(min(length-uint64(len(payload)), frameChunk))
		payload = slices.Grow(payload, step)
		n, err := io.ReadFull(r, payload[len(payload):len(payload)+step])
		payload = payload[:len(payload)+n]
		switch {
		case err == io.EOF || err == io.ErrUnexpectedEOF:
			return nil, fmt.Errorf("%w: payload truncated at %d of %d bytes", ErrSnapshotCorrupt, len(payload), length)
		case err != nil:
			return nil, fmt.Errorf("%w: reading payload: %v", ErrSnapshotCorrupt, err)
		}
	}
	if extra, _ := io.CopyN(io.Discard, r, 1); extra != 0 {
		return nil, fmt.Errorf("%w: trailing data after %d-byte payload", ErrSnapshotCorrupt, length)
	}
	if got := crc32.Checksum(payload, snapshotCRC); got != wantCRC {
		return nil, fmt.Errorf("%w: checksum mismatch (file %08x, payload %08x)", ErrSnapshotCorrupt, wantCRC, got)
	}
	return payload, nil
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

// ReadSnapshot validates a snapshot written by WriteSnapshot, this
// build's or an older one's — magic, version, length, checksum — and only
// then gob-decodes the payload into v. When v is a *Bundle or an
// *Analyzer, every Naive Bayes model decodes as an *nbayes.Model,
// whichever version wrote it. Every failure mode maps to
// ErrSnapshotFormat or ErrSnapshotCorrupt so callers can distinguish "not
// one of ours" from "damaged".
func ReadSnapshot(r io.Reader, v any) error {
	RegisterGobModels()
	payload, err := readFrame(r, snapshotMagic, snapshotOldest, snapshotVersion)
	if err != nil {
		return err
	}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(v); err != nil {
		return fmt.Errorf("%w: decode payload: %v", ErrSnapshotCorrupt, err)
	}
	upgradeModels(v)
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

// Load deserialises an analyzer written by Save. Like a bundle's, a
// sub-model whose dimensions its learner's Fit could not have produced
// is rejected as ErrSnapshotCorrupt: scoring indexes by them.
func Load(r io.Reader) (*Analyzer, error) {
	var a Analyzer
	if err := ReadSnapshot(r, &a); err != nil {
		return nil, err
	}
	if err := a.checkShape(); err != nil {
		return nil, fmt.Errorf("%w: analyzer: %v", ErrSnapshotCorrupt, err)
	}
	return &a, nil
}

// SaveFile writes the analyzer to path atomically.
func (a *Analyzer) SaveFile(path string) error {
	return WriteSnapshotFile(path, a)
}

// LoadFile reads an analyzer from path as Load does.
func LoadFile(path string) (*Analyzer, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: open model file: %w", err)
	}
	defer f.Close()
	a, err := Load(f)
	if err != nil {
		return nil, fmt.Errorf("model %s: %w", path, err)
	}
	return a, nil
}

// Bundle is the deployable model artifact `cfa train` emits and the
// scoring paths (`cfa detect/curve/inspect/serve`) consume: the trained
// analyzer, the discretiser that maps raw audit vectors onto its schema,
// and the calibrated operating point. Every path scores through Analyzer.
type Bundle struct {
	Analyzer    *Analyzer
	Discretizer *features.Discretizer
	Threshold   float64
	Scorer      Scorer

	// Fallback held the naive-Bayes ensemble that older builds of `cfa
	// train` wrote beside a C4.5 or RIPPER analyzer.
	//
	// Deprecated: nothing writes or scores it. LoadBundleFile drops it
	// after decoding, so such bundles score through Analyzer unchanged.
	// The field stays only because bench/replay.go still reads it.
	Fallback *Analyzer
}

// Validate checks the structural invariants a loaded bundle must satisfy
// before it may serve traffic. Load goes through this, so a snapshot that
// decodes but is semantically hollow or mis-shaped (nil analyzer, no
// sub-models, schema mismatch, a sub-model whose dimensions Fit could not
// have produced, non-finite threshold) is rejected like any other
// corruption instead of panicking at compile or scoring time.
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
	// Every attribute must have as many values as the discretiser
	// produces for its feature, so no transformed record can index past a
	// sub-model's tables.
	for j, at := range b.Analyzer.Attrs {
		if c := b.Discretizer.Cardinality(j); at.Card != c {
			return fmt.Errorf("%w: bundle analyzer: attribute %d has cardinality %d, discretizer gives %d",
				ErrSnapshotCorrupt, j, at.Card, c)
		}
	}
	return nil
}

// checkShape verifies that the analyzer has one model slot per attribute
// and that every sub-model has exactly the shape its learner's Fit
// produces for that slot: the dimensions compile and scoring index by.
func (a *Analyzer) checkShape() error {
	if len(a.Models) != len(a.Attrs) {
		return fmt.Errorf("%d sub-model slots for %d attributes", len(a.Models), len(a.Attrs))
	}
	for i, m := range a.Models {
		var err error
		switch m := m.(type) {
		case *c45.Tree:
			err = m.CheckShape(a.Attrs, i)
		case *ripper.RuleSet:
			err = m.CheckShape(a.Attrs, i)
		case *nbayes.Model:
			err = m.CheckShape(a.Attrs, i)
		}
		if err != nil {
			return fmt.Errorf("sub-model %d: %v", i, err)
		}
	}
	return nil
}

// Detector builds the bundle's detector at its calibrated threshold.
func (b *Bundle) Detector() *Detector {
	return &Detector{Analyzer: b.Analyzer, Scorer: b.Scorer, Threshold: b.Threshold}
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
// on any error. A deprecated Fallback ensemble in an old bundle is
// dropped unchecked; nothing scores it.
func LoadBundleFile(path string) (*Bundle, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: open model file: %w", err)
	}
	defer f.Close()
	b, err := readBundle(f)
	if err != nil {
		return nil, fmt.Errorf("model %s: %w", path, err)
	}
	return b, nil
}

// readBundle decodes and validates one bundle snapshot from r.
func readBundle(r io.Reader) (*Bundle, error) {
	var b Bundle
	if err := ReadSnapshot(r, &b); err != nil {
		return nil, err
	}
	b.Fallback = nil
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return &b, nil
}
