package ml

import "encoding/binary"

// WireReader reads the varint fields of a sub-model's binary encoding
// (c45.Tree and nbayes.Model GobDecode). The first field that is
// malformed or out of range fails the reader: every later read returns 0,
// so a decoder checks Failed once per step rather than after every field.
type WireReader struct {
	buf    []byte
	failed bool
}

// NewWireReader returns a reader over b.
func NewWireReader(b []byte) WireReader { return WireReader{buf: b} }

// Int reads a zig-zag varint that fits an int.
func (r *WireReader) Int() int {
	v, n := binary.Varint(r.buf)
	if n <= 0 || int64(int(v)) != v {
		return r.fail()
	}
	r.buf = r.buf[n:]
	return int(v)
}

// Uint reads a uvarint no greater than limit.
func (r *WireReader) Uint(limit int) int {
	v, n := binary.Uvarint(r.buf)
	if n <= 0 || v > uint64(limit) {
		return r.fail()
	}
	r.buf = r.buf[n:]
	return int(v)
}

// Len reads a uvarint count of items that each take at least size bytes
// of the input after it, so a count the input cannot hold fails before
// anything is sized by it.
func (r *WireReader) Len(size int) int {
	v, n := binary.Uvarint(r.buf)
	if n <= 0 || v > uint64(len(r.buf)-n)/uint64(size) {
		return r.fail()
	}
	r.buf = r.buf[n:]
	return int(v)
}

// Rest returns the unread input.
func (r *WireReader) Rest() []byte { return r.buf }

// Failed reports whether a read has failed.
func (r *WireReader) Failed() bool { return r.failed }

func (r *WireReader) fail() int {
	r.buf, r.failed = nil, true
	return 0
}
