package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"embed"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minIterations is the fewest offline iterations an untraced run makes,
// however short its --seconds; a traced run makes at least one untraced
// and one traced iteration.
const minIterations = 3

// goldens holds the seed-1 output digest of each offline workload.
//
//go:embed golden
var goldens embed.FS

// childResult is what one offline iteration reports to the parent.
type childResult struct {
	Wall    float64 `json:"wall_s"`
	CPU     float64 `json:"cpu_s"`
	Records int     `json:"records"`
	// Digest is the golden-checked output digest (untraced iterations).
	Digest string `json:"digest,omitempty"`
	// Check digests the results a traced iteration also produces, so the
	// traced pipeline can be checked against the untraced one.
	Check  string             `json:"check"`
	Layers map[string]float64 `json:"layers,omitempty"`
	Spans  []span             `json:"spans,omitempty"`
}

// childRun is one finished iteration as the parent saw it.
type childRun struct {
	res      childResult
	setup    time.Duration
	maxRSSMB float64
}

// runOffline runs iterations of an offline workload, each in a fresh
// child process so its peak RSS is its own, until --seconds have passed.
// Traced runs alternate untraced and traced iterations.
func runOffline(ctx context.Context, o runOpts) (*outcome, error) {
	out := newOutcome()
	golden := ""
	if o.seed == 1 && !o.smoke {
		b, err := goldens.ReadFile("golden/" + o.workload.name + ".sha256")
		if err != nil {
			return nil, err
		}
		golden = strings.TrimSpace(string(b))
	}
	var plain, traced []*childRun
	start := time.Now()
	for i := 0; ; i++ {
		if time.Since(start) >= o.seconds &&
			(o.trace && i > 0 && i%2 == 0 || !o.trace && i >= minIterations) {
			break
		}
		tr := o.trace && i%2 == 1
		cr, err := runChild(ctx, o, tr)
		if err != nil {
			return nil, err
		}
		out.attempted++
		// An untraced iteration's output must match the seed-1 golden, or
		// the run's first iteration on other seeds; a traced iteration's
		// results must match the untraced pipeline's.
		var got, want string
		if tr {
			traced = append(traced, cr)
			got, want = cr.res.Check, plain[0].res.Check
		} else {
			plain = append(plain, cr)
			got, want = cr.res.Digest, golden
			if want == "" {
				want = plain[0].res.Digest
			}
		}
		if got != want {
			out.failed++
			out.correct = false
			fmt.Fprintf(os.Stderr, "%s: iteration %d output digest %s, want %s\n", o.workload.name, i, got, want)
		}
	}

	var setups, walls, rss []float64
	records, cpu := 0, 0.0
	for _, cr := range plain {
		setups = append(setups, cr.setup.Seconds())
		walls = append(walls, cr.res.Wall)
		rss = append(rss, cr.maxRSSMB)
		records += cr.res.Records
		cpu += cr.res.CPU
	}
	v := out.values
	if !o.trace {
		v["setup_s"] = median(setups)
		v["p50_ms"] = median(walls) * 1000
		v["rec_per_cpu_s"] = float64(records) / cpu
		v["peak_rss_mb"] = median(rss)
		return out, nil
	}

	rec := newRecorder()
	var tracedWalls []float64
	layers := map[string][]float64{}
	for i, cr := range traced {
		tracedWalls = append(tracedWalls, cr.res.Wall)
		for name, x := range cr.res.Layers {
			layers[name] = append(layers[name], x)
		}
		base := len(rec.spans)
		for _, s := range cr.res.Spans {
			s.ID += base
			if s.Parent != 0 {
				s.Parent += base
			}
			s.Run = "iter-" + strconv.Itoa(i)
			rec.spans = append(rec.spans, s)
		}
	}
	for name, xs := range layers {
		v[name] = median(xs)
	}
	v["trace.overhead_pct"] = (median(tracedWalls) - median(walls)) / median(walls) * 100
	return out, rec.write(o.spansPath)
}

// runChild runs one offline iteration in a fresh child process. Set-up is
// from spawn to the child's "ready" line: process start plus building the
// iteration's inputs.
func runChild(ctx context.Context, o runOpts, traced bool) (*childRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"child", "--workload", o.workload.name, "--seed", strconv.FormatInt(o.seed, 10), "--trace", "0"}
	if traced {
		args[len(args)-1] = "1"
	}
	if o.smoke {
		args = append(args, "--smoke")
	}
	cmd := command(ctx, exe, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	cr := &childRun{}
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 64<<10), 64<<20)
	var protoErr error
	if !sc.Scan() || sc.Text() != "ready" {
		protoErr = fmt.Errorf("child did not report ready")
	} else {
		cr.setup = time.Since(start)
		if !sc.Scan() {
			protoErr = fmt.Errorf("child reported no result")
		} else {
			protoErr = json.Unmarshal(sc.Bytes(), &cr.res)
		}
	}
	io.Copy(io.Discard, stdout)
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("%s iteration: %w", o.workload.name, err)
	}
	if protoErr != nil {
		return nil, fmt.Errorf("%s iteration: %w", o.workload.name, protoErr)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		cr.maxRSSMB = float64(ru.Maxrss) / 1024
	}
	return cr, nil
}

// childMain is one offline iteration, run in its own process: it builds
// the inputs, prints "ready", runs the pipeline and prints its result as
// one JSON line.
func childMain(args []string) error {
	fs := newFlagSet("child")
	name := fs.String("workload", "", "offline workload")
	seed := fs.Int64("seed", 1, "input seed")
	trace := fs.Int("trace", 0, "1 runs the phase-by-phase traced pipeline")
	smoke := fs.Bool("smoke", false, "smoke-scale inputs")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := workloadByName(*name)
	if err != nil {
		return err
	}
	var res *childResult
	switch w.offline {
	case "figure1":
		res, err = figureIteration(*seed, *trace == 1, *smoke)
	case "train":
		res, err = trainIteration(*seed, *trace == 1, *smoke)
	default:
		return fmt.Errorf("%s is not an offline workload", w.name)
	}
	if err != nil {
		return err
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", b)
	return nil
}

func ready() { fmt.Println("ready") }

// bitsHash digests float64 results bit for bit.
type bitsHash struct{ h hash.Hash }

func newBitsHash() *bitsHash { return &bitsHash{h: sha256.New()} }

func (b *bitsHash) add(xs ...float64) {
	var buf [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		b.h.Write(buf[:])
	}
}

func (b *bitsHash) sum() string { return fmt.Sprintf("%x", b.h.Sum(nil)) }
