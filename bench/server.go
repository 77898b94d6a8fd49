package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one running `cfa serve` child process.
type server struct {
	cmd       *exec.Cmd
	addr      string // public listener, host:port
	debugAddr string // debug listener, when started with -debug-addr
	exited    chan struct{}
	waitErr   error
}

// command builds a child process that is killed if the benchmark dies, so
// no run can leave a process behind.
func command(ctx context.Context, bin string, args ...string) *exec.Cmd {
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stderr = os.Stderr
	return cmd
}

// startServer spawns `cfa serve` on ephemeral ports with default flags
// plus extra, and returns once /readyz answers 200, with the time that
// took: bundle decode, CRC check and kernel compile.
func startServer(ctx context.Context, cfa, model string, extra ...string) (*server, time.Duration, error) {
	args := append([]string{"serve", "-model", model, "-addr", "127.0.0.1:0"}, extra...)
	cmd := command(ctx, cfa, args...)
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start cfa serve: %w", err)
	}
	s := &server{cmd: cmd, exited: make(chan struct{})}
	addrs := make(chan [2]string, 1)
	go func() {
		// The banner names both listeners (the debug one first); the rest
		// of stdout is drained so the child never blocks on a full pipe.
		sc := bufio.NewScanner(out)
		debug := ""
		for sc.Scan() {
			l := sc.Text()
			if a, ok := afterWord(l, "debug surface on http://"); ok {
				debug = strings.SplitN(a, "/", 2)[0]
			}
			if a, ok := afterWord(l, "listening on "); ok {
				select {
				case addrs <- [2]string{strings.Fields(a)[0], debug}:
				default:
				}
			}
		}
		io.Copy(io.Discard, out)
		s.waitErr = cmd.Wait()
		close(s.exited)
	}()
	select {
	case a := <-addrs:
		s.addr, s.debugAddr = a[0], a[1]
	case <-s.exited:
		return nil, 0, fmt.Errorf("cfa serve exited before listening: %v", s.waitErr)
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, 0, fmt.Errorf("cfa serve did not start listening within 30s")
	}
	client := &http.Client{Timeout: time.Second}
	for {
		resp, err := client.Get("http://" + s.addr + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		if time.Since(start) > 30*time.Second {
			s.stop()
			return nil, 0, fmt.Errorf("cfa serve not ready within 30s")
		}
		time.Sleep(time.Millisecond)
	}
}

func afterWord(line, word string) (string, bool) {
	i := strings.Index(line, word)
	if i < 0 {
		return "", false
	}
	return line[i+len(word):], true
}

func (s *server) url(path string) string { return "http://" + s.addr + path }

// stop drains the server with SIGTERM and waits for it to exit, killing it
// if the drain takes longer than 15s.
func (s *server) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(15 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
	}
}

// peakRSSMB reads the server's peak resident set (VmHWM) in MB.
func (s *server) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", s.cmd.Process.Pid)
}

// cpuTime reads the server's user+system CPU time from /proc/<pid>/stat.
func (s *server) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the whole line, in clock ticks (USER_HZ, 100
	// on Linux).
	rest := string(b[strings.LastIndexByte(string(b), ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", s.cmd.Process.Pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc/%d/stat cpu times", s.cmd.Process.Pid)
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}
