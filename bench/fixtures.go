package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"

	"crossfeature/internal/features"
	"crossfeature/internal/serve"
)

// binaries are the programs under test, built from the checkout.
type binaries struct {
	cfa, manetsim string
}

// Serve fixtures reproduce the quick preset's AODV/UDP scenario: 30 nodes,
// 30 connections, 2000 s of virtual time (600 s at smoke scale), records
// before the 250 s warmup (long statistics windows still filling) dropped.
const (
	fixtureNodes         = "30"
	fixtureConns         = "30"
	fixtureDuration      = "2000"
	smokeFixtureDuration = "600"
	fixtureWarmup        = 250.0
)

// traceSeeds maps the benchmark seed to the manetsim seeds of the
// training, normal-test and mixed-attack traces: seed 1 uses the quick
// preset's 111/211/311, and seed s adds 1000·(s−1).
func traceSeeds(seed int64) (train, normal, mixed int64) {
	shift := 1000 * (seed - 1)
	return 111 + shift, 211 + shift, 311 + shift
}

// fixtures are a serve workload's untimed inputs.
type fixtures struct {
	bundle string         // model bundle from cfa train
	pool   []serve.Record // post-warmup test records, normal and mixed interleaved
}

// makeFixtures simulates the three traces, trains the workload's bundle
// with `cfa train`, and builds the request record pool, all in dir. It
// prints SHA-256 digests of the bundle and the pool to stderr, so a change
// that alters a workload's inputs shows as a digest change.
func makeFixtures(ctx context.Context, bin binaries, dir string, seed int64, learner string, smoke bool) (*fixtures, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	duration := fixtureDuration
	if smoke {
		duration = smokeFixtureDuration
	}
	train, normal, mixed := traceSeeds(seed)
	sims := []struct {
		name   string
		seed   int64
		attack string
	}{{"train", train, "none"}, {"normal", normal, "none"}, {"mixed", mixed, "mixed"}}
	errs := make([]error, len(sims))
	var wg sync.WaitGroup
	for i, s := range sims {
		wg.Add(1)
		go func(i int, name string, seed int64, attack string) {
			defer wg.Done()
			errs[i] = runQuiet(ctx, bin.manetsim, "-routing", "aodv", "-transport", "udp",
				"-nodes", fixtureNodes, "-connections", fixtureConns, "-duration", duration,
				"-seed", strconv.FormatInt(seed, 10), "-attack", attack,
				"-out", filepath.Join(dir, name+".csv"))
		}(i, s.name, s.seed, s.attack)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	fx := &fixtures{bundle: filepath.Join(dir, "model.bin")}
	if err := runQuiet(ctx, bin.cfa, "train", "-in", filepath.Join(dir, "train.csv"),
		"-model", fx.bundle, "-learner", learner, "-warmup", strconv.FormatFloat(fixtureWarmup, 'g', -1, 64)); err != nil {
		return nil, err
	}
	var tests [2][]features.Vector
	for i, name := range []string{"normal", "mixed"} {
		vs, err := readTrace(filepath.Join(dir, name+".csv"))
		if err != nil {
			return nil, err
		}
		for _, v := range vs {
			if v.Time >= fixtureWarmup {
				tests[i] = append(tests[i], v)
			}
		}
	}
	for i := 0; i < max(len(tests[0]), len(tests[1])); i++ {
		for _, vs := range tests {
			if i < len(vs) {
				fx.pool = append(fx.pool, serve.Record{Time: vs[i].Time, Values: vs[i].Values})
			}
		}
	}
	if len(fx.pool) == 0 {
		return nil, fmt.Errorf("fixtures: no post-warmup test records")
	}
	bundle, err := os.ReadFile(fx.bundle)
	if err != nil {
		return nil, err
	}
	pool, err := json.Marshal(fx.pool)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "fixtures: seed %d %s bundle sha256 %x, pool of %d records sha256 %x\n",
		seed, learner, sha256.Sum256(bundle), len(fx.pool), sha256.Sum256(pool))
	return fx, nil
}

func readTrace(path string) ([]features.Vector, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return features.ReadCSV(f)
}

// runQuiet runs a fixture-building program, surfacing its output only if
// it fails.
func runQuiet(ctx context.Context, bin string, args ...string) error {
	cmd := command(ctx, bin, args...)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%s %v: %w\n%s", filepath.Base(bin), args, err, out.Bytes())
	}
	return nil
}
