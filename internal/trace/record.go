package trace

// Audit-trace recording: a small line-oriented format for replayable
// feature-vector traces. `manetsim -record` writes one; `cfa loadgen
// -trace` replays it against a serving endpoint with the original
// inter-arrival gaps (normalised to the requested rate), so a capacity
// claim can be reproduced from the exact workload that produced it.
//
// The format is deliberately dumber than the feature CSV: a versioned
// header line, a tab-separated name list, then one record per line as
// `time\tv0\tv1...`. It carries timestamps for arrival shape and values
// for request bodies, and nothing else. Records here are generic
// (time + values) rather than features.Vector because the features
// package sits above this one in the import graph.

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// AuditTraceHeader is the first line of an audit trace; the version
// suffix lets a future format change be detected instead of misparsed.
const AuditTraceHeader = "cfa-audit-trace/1"

// AuditRecord is one replayable record: an event timestamp (seconds,
// simulation or wall clock — replay only uses the gaps between them) and
// the raw feature values.
type AuditRecord struct {
	Time   float64
	Values []float64
}

// WriteAuditTrace writes the header, the feature-name list and all
// records. Before writing a byte it refuses a trace whose shape
// ReadAuditTrace would reject: no records, no feature names, a name
// holding a tab, a newline or a carriage return, or a record without
// exactly len(names) values.
func WriteAuditTrace(w io.Writer, names []string, recs []AuditRecord) error {
	line := strings.Join(names, "\t")
	switch {
	case len(recs) == 0:
		return fmt.Errorf("trace: audit trace has no records")
	case line == "":
		return fmt.Errorf("trace: audit trace has no feature names")
	case strings.ContainsAny(line, "\n\r") || strings.Count(line, "\t") != len(names)-1:
		return fmt.Errorf("trace: audit trace feature names contain a tab, a newline or a carriage return")
	}
	for i, r := range recs {
		if len(r.Values) != len(names) {
			return fmt.Errorf("trace: audit record %d has %d values, want %d", i, len(r.Values), len(names))
		}
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, AuditTraceHeader)
	fmt.Fprintln(bw, line)
	for _, r := range recs {
		bw.WriteString(strconv.FormatFloat(r.Time, 'g', -1, 64))
		for _, v := range r.Values {
			bw.WriteByte('\t')
			bw.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// ReadAuditTrace parses a trace written by WriteAuditTrace, validating
// the header, the column count of every record and the finiteness of
// nothing — scoring is where value validity is judged; replay only needs
// shape.
func ReadAuditTrace(r io.Reader) (names []string, recs []AuditRecord, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	if !sc.Scan() {
		return nil, nil, fmt.Errorf("trace: empty audit trace: %w", sc.Err())
	}
	if got := strings.TrimSpace(sc.Text()); got != AuditTraceHeader {
		return nil, nil, fmt.Errorf("trace: bad audit-trace header %q, want %q", got, AuditTraceHeader)
	}
	if !sc.Scan() {
		return nil, nil, fmt.Errorf("trace: audit trace missing feature-name line")
	}
	names = strings.Split(sc.Text(), "\t")
	if len(names) == 0 || (len(names) == 1 && names[0] == "") {
		return nil, nil, fmt.Errorf("trace: audit trace has no feature names")
	}
	// The scanner drops one carriage return before each newline, so a
	// name ending in one would not survive WriteAuditTrace and back.
	if strings.ContainsRune(sc.Text(), '\r') {
		return nil, nil, fmt.Errorf("trace: audit trace feature names contain a carriage return")
	}
	line := 2
	for sc.Scan() {
		line++
		txt := sc.Text()
		if strings.TrimSpace(txt) == "" {
			continue
		}
		fields := strings.Split(txt, "\t")
		if len(fields) != len(names)+1 {
			return nil, nil, fmt.Errorf("trace: audit trace line %d has %d fields, want %d", line, len(fields), len(names)+1)
		}
		t, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, nil, fmt.Errorf("trace: audit trace line %d: bad time %q: %v", line, fields[0], err)
		}
		vals := make([]float64, len(names))
		for i, f := range fields[1:] {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return nil, nil, fmt.Errorf("trace: audit trace line %d: bad value %q: %v", line, f, err)
			}
			vals[i] = v
		}
		recs = append(recs, AuditRecord{Time: t, Values: vals})
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("trace: reading audit trace: %w", err)
	}
	if len(recs) == 0 {
		return nil, nil, fmt.Errorf("trace: audit trace has no records")
	}
	return names, recs, nil
}
