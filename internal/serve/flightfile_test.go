package serve

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"testing"

	"crossfeature/internal/core"
	"crossfeature/internal/obs"
)

// flightSeedDumps builds the dumps internal/obs's flight tests check: a
// recorder holding a traced request with hops, a transition event and a
// histogram exemplar, and one holding a rejected batch request and a
// checkpoint event.
func flightSeedDumps() []obs.FlightDump {
	fr := obs.NewFlightRecorder(32, 32)
	tc := obs.NewTraceContext()
	at := obs.StartTrace(tc, "score", true)
	at.Hop("decode")
	at.Hop("admit")
	at.RT.Stream = "s1"
	at.RT.Records = 3
	fr.RecordTrace(at.Finish(200))
	fr.Event("brownout", "level 0 -> 1")
	h := obs.NewHistogram([]float64{0.1, 1})
	h.ObserveWithExemplar(0.05, tc.TraceID())
	fr.AddExemplarSource("test_latency", h)

	small := obs.NewFlightRecorder(8, 8)
	small.RecordTrace(obs.StartTrace(obs.NewTraceContext(), "score-batch", false).Finish(429))
	small.Event("checkpoint", "write ok")
	return []obs.FlightDump{fr.Dump(), small.Dump()}
}

// frameFlight wraps payload in a CFAF frame, as writeFlightDump does.
func frameFlight(t testing.TB, payload []byte) []byte {
	var buf bytes.Buffer
	if err := core.WriteFrame(&buf, flightMagic, flightFileVersion, payload); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadFlightDump feeds arbitrary bytes to decodeFlightDump, the
// decoder behind ReadFlightDump, both as a whole file and framed under a
// valid CFAF header and checksum, so that mutations reach the JSON
// decode and the version check. It must never panic, and a dump it
// accepts must round-trip: re-marshalled and re-framed, it decodes to the
// same dump. Dumps are compared by their JSON encoding, since the
// omitempty fields turn an empty slice into an absent one. Seeds: the
// obs flight tests' two dumps as files and as payloads, the first file
// cut inside and just past its header and short of its last byte, and
// the first payload cut every 16 bytes, which the target frames (a seed
// per byte took longer than fuzz-smoke's budget to gather coverage for).
func FuzzReadFlightDump(f *testing.F) {
	for i, d := range flightSeedDumps() {
		payload, err := json.Marshal(d)
		if err != nil {
			f.Fatal(err)
		}
		file := frameFlight(f, payload)
		f.Add(file)
		f.Add(payload)
		if i > 0 {
			continue
		}
		for _, cut := range []int{0, core.FrameHeaderLen - 1, core.FrameHeaderLen, len(file) - 1} {
			f.Add(file[:cut])
		}
		for cut := 0; cut < len(payload); cut += 16 {
			f.Add(payload[:cut])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, frameFlight(t, data)} {
			d, err := decodeFlightDump(bytes.NewReader(in))
			if err != nil {
				continue
			}
			payload, err := json.Marshal(d)
			if err != nil {
				t.Fatalf("accepted dump does not re-marshal: %v", err)
			}
			d2, err := decodeFlightDump(bytes.NewReader(frameFlight(t, payload)))
			if err != nil {
				t.Fatalf("re-encoded dump %s rejected: %v", payload, err)
			}
			if again, err := json.Marshal(d2); err != nil || !bytes.Equal(again, payload) {
				t.Fatalf("dump changed in a round trip:\n got %s (%v)\nwant %s", again, err, payload)
			}
		}
	})
}

// TestMain caps the fuzz engine's minimisation of each new input at one
// second unless -test.fuzzminimizetime is given. FuzzReadFlightDump's
// inputs are kilobytes of JSON and the byte-subset pass of minimisation
// is quadratic in input length, so at the 60 s default every new input
// stalls a worker and the exec count stands still.
func TestMain(m *testing.M) {
	flag.Parse()
	set := false
	flag.Visit(func(f *flag.Flag) { set = set || f.Name == "test.fuzzminimizetime" })
	if !set {
		if err := flag.Set("test.fuzzminimizetime", "1s"); err != nil {
			panic(err)
		}
	}
	os.Exit(m.Run())
}
