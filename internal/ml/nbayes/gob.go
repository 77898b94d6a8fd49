package nbayes

import (
	"encoding/binary"
	"errors"
	"math"

	"crossfeature/internal/ml"
)

// The binary encoding GobEncode writes is a shape header and then the
// tables' values:
//
//	varint   Target
//	uvarint  len(LogPrior)
//	uvarint  len(LogCond)
//	per table: uvarint row count (0 for an absent table), then
//	           uvarint each row's length
//	LogPrior, then every row in table order, as the little-endian bits
//	of each float64
//
// The header declares every value that follows, so GobDecode checks the
// whole shape against the input before it allocates anything, and then
// allocates one float64 slab for the model. Any shape round-trips: a
// model Fit could not have produced is CheckShape's to reject.

var errCorrupt = errors.New("nbayes: corrupt model encoding")

// GobEncode implements gob.GobEncoder.
func (m *Model) GobEncode() ([]byte, error) {
	rows, values := 0, len(m.LogPrior)
	for _, tab := range m.LogCond {
		rows += len(tab)
		for _, row := range tab {
			values += len(row)
		}
	}
	buf := make([]byte, 0, 3*binary.MaxVarintLen64+len(m.LogCond)+2*rows+8*values)
	buf = binary.AppendVarint(buf, int64(m.Target))
	buf = binary.AppendUvarint(buf, uint64(len(m.LogPrior)))
	buf = binary.AppendUvarint(buf, uint64(len(m.LogCond)))
	for _, tab := range m.LogCond {
		buf = binary.AppendUvarint(buf, uint64(len(tab)))
		for _, row := range tab {
			buf = binary.AppendUvarint(buf, uint64(len(row)))
		}
	}
	buf = appendFloats(buf, m.LogPrior)
	for _, tab := range m.LogCond {
		for _, row := range tab {
			buf = appendFloats(buf, row)
		}
	}
	return buf, nil
}

func appendFloats(buf []byte, vs []float64) []byte {
	for _, v := range vs {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}

// GobDecode implements gob.GobDecoder. A first pass reads the header
// without allocating: every declared length must fit in the input, and
// the values it declares must account for the input after the header
// exactly. The second pass copies the values into one slab and cuts the
// prior and the rows from it as capacity-capped views, so no row can
// grow into its neighbour. data is not kept.
func (m *Model) GobDecode(data []byte) error {
	r := ml.NewWireReader(data)
	target := r.Int()
	priors := r.Len(8)
	tables := r.Len(1)
	shape := r.Rest()
	rows, values := 0, priors
	for range tables {
		n := r.Len(1)
		rows += n
		for range n {
			values += r.Len(8)
		}
		if r.Failed() || values > len(data)/8 {
			return errCorrupt
		}
	}
	vals := r.Rest()
	if r.Failed() || len(vals) != 8*values {
		return errCorrupt
	}

	slab := make([]float64, values)
	for i := range slab {
		slab[i] = math.Float64frombits(binary.LittleEndian.Uint64(vals[8*i:]))
	}
	m.Target = target
	m.LogPrior = slab[:priors:priors]
	m.LogCond = make([][][]float64, tables)
	views := make([][]float64, rows)
	r = ml.NewWireReader(shape)
	off := priors
	for a := range m.LogCond {
		n := r.Len(1)
		if n == 0 {
			continue
		}
		tab := views[:n:n]
		views = views[n:]
		for c := range tab {
			l := r.Len(8)
			tab[c] = slab[off : off+l : off+l]
			off += l
		}
		m.LogCond[a] = tab
	}
	return nil
}
