package serve

// Request decoding. /v1/score and /v1/score-batch bodies are parsed by a
// single-pass decoder written for exactly these two request types, in
// place of encoding/json's reflection-driven Decoder: on the collector
// shape (128 records of ~140 values per body) the generic decoder was
// 83% of a request's server time. It is a drop-in replacement — for any
// body it accepts exactly what json.NewDecoder(body).Decode accepts and
// fills in an identical struct (FuzzDecodeScoreRequest and
// FuzzDecodeBatchRequest hold it to that, with encoding/json as the
// oracle):
//
//   - the top-level value is checked against the JSON grammar; bytes
//     after it are ignored, as a Decoder ignores them;
//   - object keys match field names case-insensitively under Unicode
//     simple folding (bytes.EqualFold, which encoding/json's own key
//     folding is defined to agree with); unknown members are validated
//     and skipped without recursion, nesting capped at encoding/json's
//     10000 levels;
//   - null leaves a string, number or struct target as it was and sets a
//     slice to nil; a value of any other wrong kind rejects the body; a
//     repeated key decodes into what the earlier one left, reusing slice
//     backing arrays the way encoding/json's reflection path does;
//   - escape-free valid UTF-8 strings are copied straight out of the
//     body, and any other string goes through json.Unmarshal, so invalid
//     UTF-8 and lone surrogates become U+FFFD identically;
//   - numbers convert with strconv.ParseFloat semantics, out-of-range
//     values rejected; one whose decimal mantissa and power of ten are
//     both exact in a float64 skips the call.
//
// A request's fresh Values arrays are carved from one shared []float64
// slab instead of each growing by append.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"unicode/utf8"
)

// maxNestingDepth is encoding/json's limit on nested objects and arrays.
const maxNestingDepth = 10000

// slabChunk is the most float64s one slab allocation holds ahead of need.
const slabChunk = 4096

// Field names; a key selects a field when bytes.EqualFold says they match.
var (
	keyItems   = []byte("items")
	keyStream  = []byte("stream")
	keyRecords = []byte("records")
	keyTime    = []byte("time")
	keyValues  = []byte("values")
)

// decodeScoreRequest decodes a /v1/score body into req.
func decodeScoreRequest(data []byte, req *ScoreRequest) error {
	return decodeTop(data, req, (*wireDecoder).scoreRequest)
}

// decodeBatchRequest decodes a /v1/score-batch body into req.
func decodeBatchRequest(data []byte, req *BatchScoreRequest) error {
	return decodeTop(data, req, (*wireDecoder).batchRequest)
}

// decodeTop decodes the body's top-level value, an object, into v with
// decode. A top-level null leaves v as it was, as encoding/json does.
func decodeTop[T any](data []byte, v *T, decode func(*wireDecoder, *T) error) error {
	d := wireDecoder{data: data}
	switch d.next() {
	case '{':
		return decode(&d, v)
	case 'n':
		return d.literal("null")
	}
	return d.mismatch("a request object")
}

// wireDecoder walks one request body. off is the next unread byte, depth
// the number of objects and arrays open around it.
type wireDecoder struct {
	data  []byte
	off   int
	depth int
	slab  []float64 // unused, zeroed room for fresh Values arrays
}

// next skips whitespace and returns the byte at d.off, or 0 at the end
// of the body.
func (d *wireDecoder) next() byte {
	for ; d.off < len(d.data); d.off++ {
		switch c := d.data[d.off]; c {
		case ' ', '\t', '\r', '\n':
		default:
			return c
		}
	}
	return 0
}

// syntaxError reports the byte at d.off as out of place, or the body as
// cut short when d.off is past its end.
func (d *wireDecoder) syntaxError(context string) error {
	if d.off >= len(d.data) {
		return fmt.Errorf("unexpected end of JSON input at offset %d", len(d.data))
	}
	return fmt.Errorf("invalid character %q %s at offset %d", d.data[d.off], context, d.off)
}

// mismatch rejects the value at d.off, which is not a want: a type error
// when a JSON value starts there, a syntax error otherwise.
func (d *wireDecoder) mismatch(want string) error {
	kind := ""
	switch d.next() {
	case '{':
		kind = "object"
	case '[':
		kind = "array"
	case '"':
		kind = "string"
	case 't', 'f':
		kind = "bool"
	case '-', '0', '1', '2', '3', '4', '5', '6', '7', '8', '9':
		kind = "number"
	default:
		return d.syntaxError("looking for beginning of value")
	}
	return fmt.Errorf("cannot decode %s into %s at offset %d", kind, want, d.off)
}

// enter consumes the '{' or '[' at d.off.
func (d *wireDecoder) enter() error {
	d.depth++
	if d.depth > maxNestingDepth {
		return fmt.Errorf("exceeded max depth at offset %d", d.off)
	}
	d.off++
	return nil
}

// nextKey moves to the open object's next member and returns its key,
// consuming the colon after it; more is false once the object has closed.
// first is true for the call right after enter.
func (d *wireDecoder) nextKey(first bool) (key []byte, more bool, err error) {
	c := d.next()
	switch {
	case c == '}':
		d.off++
		d.depth--
		return nil, false, nil
	case first:
	case c == ',':
		d.off++
	default:
		return nil, false, d.syntaxError("after object key:value pair")
	}
	key, err = d.memberKey()
	return key, err == nil, err
}

// memberKey consumes an object key and its colon.
func (d *wireDecoder) memberKey() ([]byte, error) {
	if d.next() != '"' {
		return nil, d.syntaxError("looking for beginning of object key string")
	}
	lit, plain, err := d.scanString()
	if err != nil {
		return nil, err
	}
	key := lit[1 : len(lit)-1]
	if !plain {
		s, err := unquote(lit)
		if err != nil {
			return nil, err
		}
		key = []byte(s)
	}
	if d.next() != ':' {
		return nil, d.syntaxError("after object key")
	}
	d.off++
	return key, nil
}

// nextElem moves to the open array's next element, reporting false once
// the array has closed. first is true for the call right after enter.
func (d *wireDecoder) nextElem(first bool) (bool, error) {
	switch c := d.next(); {
	case c == ']':
		d.off++
		d.depth--
		return false, nil
	case first:
		return true, nil
	case c == ',':
		d.off++
		return true, nil
	}
	return false, d.syntaxError("after array element")
}

// batchRequest decodes the object at d.off into req.
func (d *wireDecoder) batchRequest(req *BatchScoreRequest) error {
	if err := d.enter(); err != nil {
		return err
	}
	for first := true; ; first = false {
		key, more, err := d.nextKey(first)
		if err != nil || !more {
			return err
		}
		if bytes.EqualFold(key, keyItems) {
			err = decodeObjects(d, &req.Items, "ScoreRequest", (*wireDecoder).scoreRequest)
		} else {
			err = d.skip()
		}
		if err != nil {
			return err
		}
	}
}

// scoreRequest decodes the object at d.off into req.
func (d *wireDecoder) scoreRequest(req *ScoreRequest) error {
	if err := d.enter(); err != nil {
		return err
	}
	for first := true; ; first = false {
		key, more, err := d.nextKey(first)
		if err != nil || !more {
			return err
		}
		switch {
		case bytes.EqualFold(key, keyStream):
			err = d.stringField(&req.Stream)
		case bytes.EqualFold(key, keyRecords):
			err = decodeObjects(d, &req.Records, "Record", (*wireDecoder).record)
		default:
			err = d.skip()
		}
		if err != nil {
			return err
		}
	}
}

// record decodes the object at d.off into rec.
func (d *wireDecoder) record(rec *Record) error {
	if err := d.enter(); err != nil {
		return err
	}
	for first := true; ; first = false {
		key, more, err := d.nextKey(first)
		if err != nil || !more {
			return err
		}
		switch {
		case bytes.EqualFold(key, keyTime):
			switch c := d.next(); {
			case c == 'n':
				err = d.literal("null")
			case c == '-' || isDigit(c):
				rec.Time, err = d.number()
			default:
				err = d.mismatch("float64")
			}
		case bytes.EqualFold(key, keyValues):
			err = d.values(&rec.Values)
		default:
			err = d.skip()
		}
		if err != nil {
			return err
		}
	}
}

// decodeObjects decodes the array of objects at d.off into *dst, each
// element by decode, with encoding/json's slice rules: elements already
// in *dst (or left past its length by an earlier, longer value) are
// decoded into rather than replaced, a null element leaves its slot as
// it was, and an empty array gives an empty non-nil slice. elem names T
// in errors.
func decodeObjects[T any](d *wireDecoder, dst *[]T, elem string, decode func(*wireDecoder, *T) error) error {
	switch d.next() {
	case '[':
	case 'n':
		*dst = nil
		return d.literal("null")
	default:
		return d.mismatch("[]" + elem)
	}
	if err := d.enter(); err != nil {
		return err
	}
	s, i := *dst, 0
	for ; ; i++ {
		more, err := d.nextElem(i == 0)
		if err != nil {
			return err
		}
		if !more {
			break
		}
		if i >= cap(s) {
			s = slices.Grow(s, 1)
		}
		if i >= len(s) {
			s = s[:i+1]
		}
		switch d.next() {
		case '{':
			err = decode(d, &s[i])
		case 'n':
			err = d.literal("null")
		default:
			err = d.mismatch(elem)
		}
		if err != nil {
			return err
		}
	}
	*dst = truncate(s, i)
	return nil
}

// values decodes the array of numbers at d.off into *dst with the slice
// rules of decodeObjects. An array replacing a slice with no backing
// array is decoded into the slab, and the result keeps no spare capacity
// there, so a later array reusing it grows off the slab rather than into
// a neighbour's values.
func (d *wireDecoder) values(dst *[]float64) error {
	switch d.next() {
	case '[':
	case 'n':
		*dst = nil
		return d.literal("null")
	default:
		return d.mismatch("[]float64")
	}
	if err := d.enter(); err != nil {
		return err
	}
	s, i := *dst, 0
	fresh := cap(s) == 0
	if fresh {
		s = d.slab
	}
	for ; ; i++ {
		more, err := d.nextElem(i == 0)
		if err != nil {
			return err
		}
		if !more {
			break
		}
		if i >= cap(s) {
			s = d.grow(s)
		}
		if i >= len(s) {
			s = s[:i+1]
		}
		switch c := d.next(); {
		case c == '-' || isDigit(c):
			s[i], err = d.number()
		case c == 'n':
			err = d.literal("null")
		default:
			err = d.mismatch("float64")
		}
		if err != nil {
			return err
		}
	}
	if fresh {
		d.slab, s = s[i:], s[:i:i]
	}
	*dst = truncate(s, i)
	return nil
}

// grow copies s into a new backing array with room to spare: up to a
// slab chunk, or as many numbers as the rest of the body can hold if
// fewer, so one allocation usually serves many fresh Values arrays.
func (d *wireDecoder) grow(s []float64) []float64 {
	room := min(slabChunk, (len(d.data)-d.off)/2+1)
	out := make([]float64, len(s), max(2*len(s), len(s)+room))
	copy(out, s)
	return out
}

// truncate finishes a slice decoded with n elements the way encoding/json
// does: cut to n, and a fresh empty slice when n is 0.
func truncate[T any](s []T, n int) []T {
	if n == 0 {
		return []T{}
	}
	return s[:n]
}

// stringField decodes the string at d.off into dst.
func (d *wireDecoder) stringField(dst *string) error {
	switch d.next() {
	case '"':
		lit, plain, err := d.scanString()
		if err != nil {
			return err
		}
		if !plain {
			*dst, err = unquote(lit)
			return err
		}
		*dst = string(lit[1 : len(lit)-1])
		return nil
	case 'n':
		return d.literal("null")
	}
	return d.mismatch("string")
}

// unquote decodes a grammar-checked string literal that has escapes or
// non-UTF-8 bytes; encoding/json does it, so its replacement of invalid
// code units with U+FFFD carries over unchanged.
func unquote(lit []byte) (string, error) {
	var s string
	err := json.Unmarshal(lit, &s)
	return s, err
}

// scanString consumes the string literal at d.off and returns it, quotes
// included. plain reports that it has no escapes and is valid UTF-8, so
// its bytes between the quotes are the decoded string.
func (d *wireDecoder) scanString() (lit []byte, plain bool, err error) {
	b, start := d.data, d.off
	plain, ascii := true, true
	for i := start + 1; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			d.off = i + 1
			lit = b[start:d.off]
			if !ascii && plain {
				plain = utf8.Valid(lit)
			}
			return lit, plain, nil
		case c == '\\':
			plain = false
			i++
			if i >= len(b) {
				break
			}
			switch b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				for end := i + 4; i < end; {
					i++
					if i >= len(b) || !isHex(b[i]) {
						d.off = i
						return nil, false, d.syntaxError("in \\u hexadecimal character escape")
					}
				}
			default:
				d.off = i
				return nil, false, d.syntaxError("in string escape code")
			}
		case c < ' ':
			d.off = i
			return nil, false, d.syntaxError("in string literal")
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	d.off = len(b)
	return nil, false, d.syntaxError("")
}

// literal consumes the literal lit (true, false or null) at d.off.
func (d *wireDecoder) literal(lit string) error {
	for i := 0; i < len(lit); i++ {
		if d.off >= len(d.data) || d.data[d.off] != lit[i] {
			return d.syntaxError("in literal " + lit)
		}
		d.off++
	}
	return nil
}

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// number consumes the number at d.off and returns the float64
// strconv.ParseFloat gives for it, rejecting one out of float64's range.
// A number whose decimal mantissa and power of ten are both exact in a
// float64 — every short integer and many of the shortest-form floats a
// JSON encoder writes — is converted with one correctly rounded multiply
// or divide, which is ParseFloat's own first step, without the call.
func (d *wireDecoder) number() (float64, error) {
	start := d.off
	mant, exp, exact, err := d.scanNumber()
	if err != nil {
		return 0, err
	}
	if exact && mant < 1<<53 && -len(pow10) < exp && exp < len(pow10) {
		f := float64(mant)
		if exp < 0 {
			f /= pow10[-exp]
		} else {
			f *= pow10[exp]
		}
		if d.data[start] == '-' {
			f = -f
		}
		return f, nil
	}
	lit := d.data[start:d.off]
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return 0, fmt.Errorf("number %s out of float64 range at offset %d", lit, start)
	}
	return f, nil
}

// scanNumber consumes a number with the JSON grammar at d.off. Its
// magnitude is mant × 10^exp, exactly when exact is set; past 19
// significant digits mant has overflowed and exact is false.
func (d *wireDecoder) scanNumber() (mant uint64, exp int, exact bool, err error) {
	b, i := d.data, d.off
	sig := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		for ; i < len(b) && isDigit(b[i]); i++ {
			mant = mant*10 + uint64(b[i]-'0')
			sig++
		}
	default:
		d.off = i
		return 0, 0, false, d.syntaxError("in numeric literal")
	}
	if i < len(b) && b[i] == '.' {
		if i++; i >= len(b) || !isDigit(b[i]) {
			d.off = i
			return 0, 0, false, d.syntaxError("after decimal point in numeric literal")
		}
		for ; i < len(b) && isDigit(b[i]); i++ {
			exp--
			if mant != 0 || b[i] != '0' {
				mant = mant*10 + uint64(b[i]-'0')
				sig++
			}
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		neg := false
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			neg = b[i] == '-'
			i++
		}
		if i >= len(b) || !isDigit(b[i]) {
			d.off = i
			return 0, 0, false, d.syntaxError("in exponent of numeric literal")
		}
		e := 0
		for ; i < len(b) && isDigit(b[i]); i++ {
			if e < 1e6 { // saturates far outside float64's range
				e = e*10 + int(b[i]-'0')
			}
		}
		if neg {
			e = -e
		}
		exp += e
	}
	d.off = i
	return mant, exp, sig <= 19, nil
}

// skip validates and consumes the value at d.off, of any kind. Nested
// containers are tracked on an explicit stack of their closing bytes, not
// by recursion, so hostile nesting costs one byte per level up to
// maxNestingDepth and never deepens the goroutine stack.
func (d *wireDecoder) skip() error {
	var closers []byte
	for {
		var err error
		switch c := d.next(); {
		case c == '{' || c == '[':
			if err := d.enter(); err != nil {
				return err
			}
			closer := byte(']')
			if c == '{' {
				closer = '}'
			}
			if d.next() != closer {
				closers = append(closers, closer)
				if closer == '}' {
					_, err = d.memberKey()
				}
				if err != nil {
					return err
				}
				continue
			}
			d.off++
			d.depth--
		case c == '"':
			_, _, err = d.scanString()
		case c == '-' || isDigit(c):
			_, _, _, err = d.scanNumber()
		case c == 't':
			err = d.literal("true")
		case c == 'f':
			err = d.literal("false")
		case c == 'n':
			err = d.literal("null")
		default:
			err = d.syntaxError("looking for beginning of value")
		}
		if err != nil {
			return err
		}
		// A value is complete: close the containers it completes, then
		// stop at the next member or element, or return at the top.
		for {
			if len(closers) == 0 {
				return nil
			}
			closer := closers[len(closers)-1]
			c := d.next()
			if c == closer {
				d.off++
				d.depth--
				closers = closers[:len(closers)-1]
				continue
			}
			if c != ',' {
				if closer == '}' {
					return d.syntaxError("after object key:value pair")
				}
				return d.syntaxError("after array element")
			}
			d.off++
			if closer == '}' {
				if _, err := d.memberKey(); err != nil {
					return err
				}
			}
			break
		}
	}
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isHex(c byte) bool {
	return isDigit(c) || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}
