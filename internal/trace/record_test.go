package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestAuditTraceRoundTrip(t *testing.T) {
	names := []string{"a", "b", "c"}
	recs := []AuditRecord{
		{Time: 0, Values: []float64{1, 2.5, -3}},
		{Time: 5.25, Values: []float64{0.1, 0, 1e9}},
		{Time: 10, Values: []float64{-0.0001, 42, 7}},
	}
	var buf bytes.Buffer
	if err := WriteAuditTrace(&buf, names, recs); err != nil {
		t.Fatal(err)
	}
	gotNames, gotRecs, err := ReadAuditTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(gotNames, ",") != strings.Join(names, ",") {
		t.Fatalf("names = %v, want %v", gotNames, names)
	}
	if len(gotRecs) != len(recs) {
		t.Fatalf("records = %d, want %d", len(gotRecs), len(recs))
	}
	for i := range recs {
		if gotRecs[i].Time != recs[i].Time {
			t.Fatalf("record %d time = %v, want %v", i, gotRecs[i].Time, recs[i].Time)
		}
		for j := range recs[i].Values {
			if gotRecs[i].Values[j] != recs[i].Values[j] {
				t.Fatalf("record %d value %d = %v, want %v", i, j, gotRecs[i].Values[j], recs[i].Values[j])
			}
		}
	}
}

func TestAuditTraceRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"empty":         "",
		"bad header":    "not-a-trace\na\tb\n1\t2\t3\n",
		"no names":      AuditTraceHeader + "\n",
		"short row":     AuditTraceHeader + "\na\tb\n1\t2\n",
		"bad value":     AuditTraceHeader + "\na\tb\n1\tx\ty\n",
		"no records":    AuditTraceHeader + "\na\tb\n",
		"bad timestamp": AuditTraceHeader + "\na\tb\nzzz\t1\t2\n",
		// A name ending in a carriage return, which WriteAuditTrace cannot
		// reproduce: found by FuzzReadAuditTrace's round trip.
		"CR in a name": AuditTraceHeader + "\na\tb\r\r\n1\t2\t3\n",
	}
	for name, in := range cases {
		if _, _, err := ReadAuditTrace(strings.NewReader(in)); err == nil {
			t.Errorf("%s: ReadAuditTrace accepted malformed input", name)
		}
	}
}

func TestWriteAuditTraceRejectsRaggedRecords(t *testing.T) {
	var buf bytes.Buffer
	err := WriteAuditTrace(&buf, []string{"a", "b"}, []AuditRecord{{Time: 0, Values: []float64{1}}})
	if err == nil {
		t.Fatal("WriteAuditTrace accepted a record with the wrong arity")
	}
}

// sameAuditTrace reports whether two decoded traces hold the same names
// and records, values compared by bit pattern except that NaN equals NaN.
func sameAuditTrace(n1 []string, r1 []AuditRecord, n2 []string, r2 []AuditRecord) bool {
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
	}
	if strings.Join(n1, "\t") != strings.Join(n2, "\t") || len(n1) != len(n2) || len(r1) != len(r2) {
		return false
	}
	for i := range r1 {
		if !same(r1[i].Time, r2[i].Time) || len(r1[i].Values) != len(r2[i].Values) {
			return false
		}
		for j := range r1[i].Values {
			if !same(r1[i].Values[j], r2[i].Values[j]) {
				return false
			}
		}
	}
	return true
}

// FuzzReadAuditTrace feeds arbitrary bytes to ReadAuditTrace, the reader
// of `manetsim -record` files that `cfa loadgen -trace` replays. It must
// never panic, and a trace it accepts must round-trip: WriteAuditTrace of
// the decoded names and records reads back to the same trace. Seeds: the
// round-trip test's trace, every truncation of it, and the malformed
// inputs TestAuditTraceRejectsMalformed rejects.
func FuzzReadAuditTrace(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteAuditTrace(&buf, []string{"a", "b", "c"}, []AuditRecord{
		{Time: 0, Values: []float64{1, 2.5, -3}},
		{Time: 5.25, Values: []float64{0.1, 0, 1e9}},
		{Time: 10, Values: []float64{-0.0001, 42, 7}},
	}); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	for cut := 0; cut <= len(valid); cut++ {
		f.Add(valid[:cut])
	}
	for _, in := range []string{
		"not-a-trace\na\tb\n1\t2\t3\n",
		AuditTraceHeader + "\na\tb\n1\t2\n",
		AuditTraceHeader + "\na\tb\n1\tx\ty\n",
		AuditTraceHeader + "\na\tb\nzzz\t1\t2\n",
		AuditTraceHeader + "\na\tb\nNaN\t-Inf\t-0\n",
		AuditTraceHeader + "\na\tb\r\r\n1\t2\t3\n",
	} {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		names, recs, err := ReadAuditTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteAuditTrace(&out, names, recs); err != nil {
			t.Fatalf("accepted trace does not re-encode: %v", err)
		}
		names2, recs2, err := ReadAuditTrace(&out)
		if err != nil {
			t.Fatalf("re-encoded trace %q rejected: %v", out.Bytes(), err)
		}
		if !sameAuditTrace(names, recs, names2, recs2) {
			t.Fatalf("trace changed in a round trip:\n got %q %v\nwant %q %v", names2, recs2, names, recs)
		}
	})
}
