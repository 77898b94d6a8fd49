package serve

// Differential tests of the request decoder in wire.go against
// encoding/json, its oracle: for every body, the oracle's
// json.NewDecoder(body).Decode accepts exactly when the wire decoder does,
// and on acceptance both fill in the same struct, floats compared bit for
// bit and nil slices told apart from empty ones.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// wireSeeds are hand-picked bodies for both decoders: each decoder also
// meets the other's shape, where every member is unknown.
func wireSeeds() []string {
	valid := `{"stream":"s","records":[{"time":1.5,"values":[1,-0,2.25]},{"values":[]}]}`
	deep := func(n int) string {
		return `{"stream":"d","x":` + strings.Repeat("[", n) + strings.Repeat("]", n) + `}`
	}
	seeds := []string{
		// The handler tests' bad requests.
		`{"stream": nope}`,
		`{"records":[{"values":[1,2,3,4]}]}`,
		`{"stream":"x","records":[]}`,
		`{"stream":"x","records":[{"values":[1,2]}]}`,
		`{"items":[]}`,
		`{"items":[{"stream":"","records":[{"values":[1,2,3,4]}]}]}`,
		// Shapes and kinds.
		valid,
		`{"items":[` + valid + `,` + valid + `]}`,
		``, `   `, `null`, `nul`, `{}`, `[]`, `"s"`, `1`, `true`,
		`{"stream":5}`, `{"records":{}}`, `{"records":[1]}`, `{"records":[{"values":"1"}]}`,
		`{"records":[{"time":"1"}]}`, `{"records":[{"values":[true]}]}`, `{"items":{}}`,
		`{"items":[[]]}`,
		// Nesting at and past encoding/json's depth limit.
		deep(maxNestingDepth - 1),
		deep(maxNestingDepth),
		`{"items":[{"records":[{"values":[1],"x":` + strings.Repeat("[", maxNestingDepth) + `}]}]}`,
		// Numbers.
		`{"records":[{"time":1e400,"values":[1]}]}`,
		`{"records":[{"values":[-1e400]}]}`,
		`{"records":[{"time":1e-400,"values":[-0,0,-0.0,1E2,1e+2,1e-2,123456789012345,1234567890123456,12345678901234567890123]}]}`,
		`{"records":[{"values":[0.1,2.5e-324,1.7976931348623157e308,4.9e-324,9007199254740993]}]}`,
		`{"records":[{"values":[01]}]}`, `{"records":[{"values":[1.]}]}`, `{"records":[{"values":[.5]}]}`,
		`{"records":[{"values":[+1]}]}`, `{"records":[{"values":[1e]}]}`, `{"records":[{"values":[-]}]}`,
		`{"records":[{"values":[1,]}]}`, `{"records":[{"values":[,1]}]}`,
		// Strings: escapes, invalid UTF-8, surrogates, control bytes.
		`{"stream":"a\"b\\c\/d\b\f\n\r\té😀"}`,
		"{\"stream\":\"bad\xff\xfeutf8\"}",
		"{\"stream\":\"\xed\xa0\x80surrogate\"}",
		`{"stream":"lone \ud800 surrogate"}`,
		`{"stream":"\u12"}`, `{"stream":"\x"}`, "{\"stream\":\"tab\there\"}",
		`{"stream":"ünïcödé"}`,
		// Keys: case and Unicode folding, escapes, non-matches.
		`{"STREAM":"upper","Records":[{"TIME":2,"VALUES":[3]}]}`,
		`{"ſtream":"long s","recordſ":[{"valueſ":[4]}]}`,
		`{"ITEMS":[{"ſtream":"x"}],"İtems":[]}`,
		`{"stream":"escaped key","records":[{"Values":[5]}]}`,
		`{"stream":"pair 😀 é \u0000"}`,
		"{\"stream\xff\":\"bad key\"}",
		// Repeated keys: later wins, slices are decoded into.
		`{"stream":"a","stream":"b","stream":null}`,
		`{"records":[{"time":1,"values":[1,2,3]}],"records":[{"values":[9]}]}`,
		`{"records":[{"values":[1,2,3]}],"records":[{"values":[5]}],"records":[{"values":[null,null,null]}]}`,
		`{"records":[{"values":[1,2,3],"values":[5],"values":[null,null,null,null]}]}`,
		`{"records":[{"values":[1,2,3],"values":[],"values":[null,null]}]}`,
		`{"records":[{"values":[1]},{"values":[2]}],"records":[{"values":[3]}],"records":[null,null]}`,
		`{"items":[{"stream":"a","records":[{"values":[1]}]}],"items":[null,{"stream":"b"}]}`,
		// Nulls everywhere.
		`{"stream":null,"records":null}`,
		`{"items":null}`, `{"items":[null]}`,
		`{"records":[null,{"time":null,"values":null},{"values":[null,1,null]}]}`,
		// Unknown members of every kind.
		`{"x":{"a":[1,{"b":null}],"c":"d","e":true,"f":false,"g":-1.5e3},"stream":"u","y":[]}`,
		`{"x":{"a" 1}}`, `{"x":{1:2}}`, `{"x":[1 2]}`, `{"x":tru}`, `{"x":{}`,
		// Trailing bytes after the value are ignored.
		valid + ` trailing garbage`,
		valid + valid,
		`null{`,
		`{"stream":"s"}]`,
		// Whitespace everywhere.
		" \t\r\n{ \"stream\" : \"w\" , \"records\" : [ { \"values\" : [ 1 , 2 ] } ] } \n",
	}
	// The float conversion's edge cases, one body each, as an out-of-range
	// number rejects the whole body.
	for _, num := range atofEdgeCases {
		seeds = append(seeds, `{"records":[{"time":`+num+`,"values":[`+num+`]}]}`)
	}
	// Every truncation of a small valid body.
	for i := 0; i < len(valid); i++ {
		seeds = append(seeds, valid[:i])
	}
	return seeds
}

// benchBatchBody builds the serve-batch request shape deterministically:
// 16 stream items × 8 records × 140 values, about half of them small
// integers and the rest full-precision floats, as in the benchmark's
// audit-record pool.
func benchBatchBody(tb testing.TB) []byte {
	rng := rand.New(rand.NewSource(1))
	items := make([]ScoreRequest, 16)
	for i := range items {
		recs := make([]Record, 8)
		for j := range recs {
			vals := make([]float64, 140)
			for k := range vals {
				if rng.Intn(2) == 0 {
					vals[k] = float64(rng.Intn(100))
				} else {
					vals[k] = rng.Float64() * math.Pow(10, float64(rng.Intn(6)-2))
				}
			}
			recs[j] = Record{Time: 250 + float64(i*8+j)*0.5, Values: vals}
		}
		items[i] = ScoreRequest{Stream: fmt.Sprintf("bench-%d", i), Records: recs}
	}
	body, err := json.Marshal(BatchScoreRequest{Items: items})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

func FuzzDecodeScoreRequest(f *testing.F) {
	for _, s := range wireSeeds() {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var want, got ScoreRequest
		wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
		gotErr := decodeScoreRequest(body, &got)
		checkParity(t, body, wantErr, gotErr, func() bool { return equalScoreRequests(&want, &got) }, &want, &got)
	})
}

func FuzzDecodeBatchRequest(f *testing.F) {
	f.Add(benchBatchBody(f))
	for _, s := range wireSeeds() {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var want, got BatchScoreRequest
		wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
		gotErr := decodeBatchRequest(body, &got)
		checkParity(t, body, wantErr, gotErr, func() bool {
			return equalSlices(want.Items, got.Items, equalScoreRequests)
		}, &want, &got)
	})
}

func checkParity(t *testing.T, body []byte, wantErr, gotErr error, equal func() bool, want, got any) {
	t.Helper()
	switch {
	case (wantErr == nil) != (gotErr == nil):
		t.Fatalf("body %q: encoding/json error %v, wire decoder error %v", body, wantErr, gotErr)
	case wantErr == nil && !equal():
		t.Fatalf("body %q: decoded\n%#v\nwant\n%#v", body, got, want)
	}
}

func equalScoreRequests(a, b *ScoreRequest) bool {
	return a.Stream == b.Stream && equalSlices(a.Records, b.Records, equalRecords)
}

func equalRecords(a, b *Record) bool {
	return math.Float64bits(a.Time) == math.Float64bits(b.Time) &&
		equalSlices(a.Values, b.Values, func(x, y *float64) bool {
			return math.Float64bits(*x) == math.Float64bits(*y)
		})
}

// equalSlices compares element-wise, telling a nil slice from an empty one.
func equalSlices[T any](a, b []T, eq func(*T, *T) bool) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if !eq(&a[i], &b[i]) {
			return false
		}
	}
	return true
}

// TestDecodeDoesNotAliasBody pins the contract that lets decodeBody
// recycle a body's buffer as soon as decode returns: nothing decoded, not
// a string and not the error text, shares memory with the body. Each seed
// body, plain, escaped, non-UTF-8 and malformed alike, is decoded by both
// decoders; then its buffer is overwritten, and the result must still
// equal a fresh decode of a pristine copy.
func TestDecodeDoesNotAliasBody(t *testing.T) {
	bodies := append(wireSeeds(), string(benchBatchBody(t)))
	errText := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	for _, body := range bodies {
		buf := []byte(body)
		var score, freshScore ScoreRequest
		var batch, freshBatch BatchScoreRequest
		scoreErr := decodeScoreRequest(buf, &score)
		batchErr := decodeBatchRequest(buf, &batch)
		for i := range buf {
			buf[i] = 'x'
		}
		freshScoreErr := decodeScoreRequest([]byte(body), &freshScore)
		freshBatchErr := decodeBatchRequest([]byte(body), &freshBatch)
		if got, want := errText(scoreErr), errText(freshScoreErr); got != want || !equalScoreRequests(&score, &freshScore) {
			t.Errorf("body %q: score request after overwrite %#v (error %q), fresh decode %#v (error %q)",
				body, score, got, freshScore, want)
		}
		if got, want := errText(batchErr), errText(freshBatchErr); got != want ||
			!equalSlices(batch.Items, freshBatch.Items, equalScoreRequests) {
			t.Errorf("body %q: batch request after overwrite %#v (error %q), fresh decode %#v (error %q)",
				body, batch, got, freshBatch, want)
		}
	}
}

// TestDecodeBodyReadsToEOF pins the one deliberate tightening over the
// encoding/json decoder, which stopped reading after the first complete
// value: the body is now read to EOF, so bytes past the limit give 413
// even when a complete request came first.
func TestDecodeBodyReadsToEOF(t *testing.T) {
	s, _ := newTestServer(t, func(c *Config) { c.MaxBodyBytes = 512 })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := `{"stream":"eof","records":[{"values":[1,2,3,0]}]}`
	for _, tc := range []struct {
		body string
		want int
	}{
		{body, http.StatusOK},
		{body + strings.Repeat(" ", 512-len(body)), http.StatusOK},
		{body + strings.Repeat(" ", 513-len(body)), http.StatusRequestEntityTooLarge},
	} {
		resp, err := http.Post(ts.URL+"/v1/score", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%d-byte body: status %d, want %d", len(tc.body), resp.StatusCode, tc.want)
		}
	}
}

// TestMalformedRequestReply pins the 400 a body the decoder rejects gets:
// the "malformed score request: " prefix and the bad-request counter, for
// syntax errors and wrong-kind values alike.
func TestMalformedRequestReply(t *testing.T) {
	s, _ := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, tc := range []struct{ path, body string }{
		{"/v1/score", `{"stream":"x","records":[{"values":[1,2,3,4]}]`},
		{"/v1/score", `{"stream":5,"records":[{"values":[1,2,3,4]}]}`},
		{"/v1/score", `{"stream":"x","records":[{"values":[1e400,2,3,4]}]}`},
		{"/v1/score-batch", `{"items":[{"stream":"x","records":[{"values":[1,2,3,"4"]}]}]}`},
		{"/v1/score-batch", ``},
	} {
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "malformed score request: ") {
			t.Errorf("%s %q: status %d, body %s", tc.path, tc.body, resp.StatusCode, msg)
		}
	}
	if got := s.Stats().BadRequests; got != 5 {
		t.Errorf("bad requests = %d, want 5", got)
	}
}

// BenchmarkDecodeScoreBatch decodes the serve-batch body shape with the
// encoding/json oracle and with the wire decoder the handlers use.
func BenchmarkDecodeScoreBatch(b *testing.B) {
	body := benchBatchBody(b)
	for _, c := range []struct {
		name   string
		decode func([]byte, *BatchScoreRequest) error
	}{
		{"decoder=json", func(body []byte, req *BatchScoreRequest) error {
			return json.NewDecoder(bytes.NewReader(body)).Decode(req)
		}},
		{"decoder=wire", decodeBatchRequest},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var req BatchScoreRequest
				if err := c.decode(body, &req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
