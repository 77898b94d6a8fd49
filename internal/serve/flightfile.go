package serve

// Flight-recorder persistence: the black box must survive the crash it
// exists to explain. Whenever a checkpoint is written the current flight
// dump is written next to it (same CRC-framed envelope as CFAS/CFAC,
// under its own CFAF magic), and a dirty marker file brackets the
// process's lifetime: created when Run starts serving, removed on a
// clean drain. A boot that finds the marker knows the previous process
// died hard, preserves its last flight dump under a .crash suffix — the
// recovered black box, surfaced in /statz and the log — and only then
// starts overwriting the live dump file. A recovered handler panic also
// writes a one-shot dump under a .panic suffix, while the process is
// still alive and the rings still hold the poisoned request.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"crossfeature/internal/core"
	"crossfeature/internal/obs"
)

const (
	flightMagic       = "CFAF"
	flightFileVersion = 1
)

// flightPath is the live dump written alongside each checkpoint;
// flightDirtyPath marks an unclean shutdown; flightCrashPath preserves
// the pre-crash dump; flightPanicPath holds the last in-process panic
// dump.
func (s *Server) flightPath() string      { return s.cfg.CheckpointPath + ".flight" }
func (s *Server) flightDirtyPath() string { return s.cfg.CheckpointPath + ".dirty" }
func (s *Server) flightCrashPath() string { return s.cfg.CheckpointPath + ".flight.crash" }
func (s *Server) flightPanicPath() string { return s.cfg.CheckpointPath + ".flight.panic" }

// writeFlightDump snapshots the recorder and atomically writes it to
// path inside a CFAF frame.
func (s *Server) writeFlightDump(path string) error {
	payload, err := json.Marshal(s.flight.Dump())
	if err != nil {
		s.met.flightDumpFailures.Inc()
		return fmt.Errorf("serve: encode flight dump: %w", err)
	}
	err = core.AtomicWriteFile(path, func(w io.Writer) error {
		return core.WriteFrame(w, flightMagic, flightFileVersion, payload)
	})
	if err != nil {
		s.met.flightDumpFailures.Inc()
		return err
	}
	s.met.flightDumpWrites.Inc()
	return nil
}

// ReadFlightDump opens a persisted CFAF flight dump — the post-crash
// inspection path, shared by the crash tests.
func ReadFlightDump(path string) (obs.FlightDump, error) {
	f, err := os.Open(path)
	if err != nil {
		return obs.FlightDump{}, err
	}
	defer f.Close()
	return decodeFlightDump(f)
}

// decodeFlightDump reads one CFAF frame from r and decodes the flight
// dump it carries.
func decodeFlightDump(r io.Reader) (obs.FlightDump, error) {
	payload, err := core.ReadFrame(r, flightMagic, flightFileVersion)
	if err != nil {
		return obs.FlightDump{}, err
	}
	var d obs.FlightDump
	if err := json.Unmarshal(payload, &d); err != nil {
		return obs.FlightDump{}, fmt.Errorf("serve: decode flight dump: %w", err)
	}
	if d.Version != obs.FlightVersion {
		return obs.FlightDump{}, fmt.Errorf("serve: flight dump version %d, want %d", d.Version, obs.FlightVersion)
	}
	return d, nil
}

// recoverFlightDump runs once at Run start (checkpointing enabled): it
// preserves a crashed predecessor's dump, then arms the dirty marker for
// this process's own lifetime.
func (s *Server) recoverFlightDump() {
	if _, err := os.Stat(s.flightDirtyPath()); err == nil {
		// The previous process never cleaned up: it was SIGKILLed, OOMed
		// or power-cycled. Its last flight dump is the black box.
		if err := os.Rename(s.flightPath(), s.flightCrashPath()); err == nil {
			s.met.flightRecovered.Inc()
			crash := s.flightCrashPath()
			s.flightCrash.Store(&crash)
			s.flightEvent("flight-recovered", crash)
			s.cfg.Logf("serve: unclean shutdown detected: previous flight recorder preserved at %s", crash)
		} else if !os.IsNotExist(err) {
			s.cfg.Logf("serve: unclean shutdown detected but flight dump not preserved: %v", err)
		} else {
			s.cfg.Logf("serve: unclean shutdown detected (no flight dump had been written yet)")
		}
	}
	if err := os.WriteFile(s.flightDirtyPath(), []byte(fmt.Sprintf("%d\n", os.Getpid())), 0o644); err != nil {
		s.cfg.Logf("serve: cannot arm flight dirty marker: %v", err)
	}
}

// markCleanShutdown writes the final flight dump and disarms the dirty
// marker — the clean-exit half of recoverFlightDump.
func (s *Server) markCleanShutdown() {
	if err := s.writeFlightDump(s.flightPath()); err != nil {
		s.cfg.Logf("serve: final flight dump failed: %v", err)
	}
	if err := os.Remove(s.flightDirtyPath()); err != nil && !os.IsNotExist(err) {
		s.cfg.Logf("serve: cannot remove flight dirty marker: %v", err)
	}
}

// dumpPanic writes the one-shot panic dump, first panic wins.
func (s *Server) dumpPanic() {
	if s.cfg.CheckpointPath == "" || !s.panicDumped.CompareAndSwap(false, true) {
		return
	}
	if err := s.writeFlightDump(s.flightPanicPath()); err != nil {
		s.cfg.Logf("serve: panic flight dump failed: %v", err)
	} else {
		s.cfg.Logf("serve: panic flight dump written to %s", s.flightPanicPath())
	}
}
