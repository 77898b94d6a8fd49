package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"text/tabwriter"
)

// compareCmd measures revision -base against HEAD: it extracts each from
// git into its own tree (built once, on its first run) with HEAD's
// benchmark in both, runs every workload on both for BENCHMARK.json's
// run_seconds in pairs that alternate which side goes first, and prints
// each end-to-end metric's medians, quartiles, wins and verdict, with
// each side's failed operations.
func compareCmd(args []string) error {
	fs := newFlagSet("compare")
	base := fs.String("base", "", "base revision (required)")
	pairs := fs.Int("pairs", 10, "paired runs per workload")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *base == "" || *pairs < 1 {
		return fmt.Errorf("compare needs -base and -pairs >= 1")
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	trees := [2]string{filepath.Join(".bench_build", "compare", "base"), filepath.Join(".bench_build", "compare", "head")}
	for i, rev := range []string{*base, "HEAD"} {
		if err := extract(rev, trees[i]); err != nil {
			return err
		}
	}
	// Both sides run HEAD's benchmark, so only the program differs.
	if err := os.RemoveAll(filepath.Join(trees[0], "bench")); err != nil {
		return err
	}
	if err := untarRev("HEAD", trees[0], "bench", "BENCHMARK.json"); err != nil {
		return err
	}
	// runs[workload][side] holds one value per pair for each metric, and
	// the side's failed and attempted operations over all pairs.
	type side struct {
		values            map[string][]float64
		failed, attempted int
	}
	runs := map[string]*[2]side{}
	for _, w := range spec.Workloads {
		runs[w.Name] = &[2]side{{values: map[string][]float64{}}, {values: map[string][]float64{}}}
	}
	for p := 0; p < *pairs; p++ {
		for _, w := range spec.Workloads {
			for k := 0; k < 2; k++ {
				s := &runs[w.Name][(p+k)%2]
				res, err := runTree(trees[(p+k)%2], w.Name, p+1, spec.RunSeconds)
				if err != nil {
					return err
				}
				for m, v := range res.Metrics {
					s.values[m] = append(s.values[m], v.Value)
				}
				s.failed += res.Failed
				s.attempted += res.Attempted
			}
		}
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tbase median [q1, q3]\thead median [q1, q3]\twins\tfailed base/head\tverdict\n")
	for _, w := range spec.Workloads {
		b, h := runs[w.Name][0], runs[w.Name][1]
		for _, m := range spec.EndToEnd {
			bv, hv := b.values[m.Name], h.values[m.Name]
			v, wins := verdict(bv, hv, m.Better == "lower", m.Bound, h.failed > b.failed)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%d/%d\t%d/%d of %d/%d\t%s\n", w.Name, m.Name, spread(bv), spread(hv),
				wins, len(bv), b.failed, h.failed, b.attempted, h.attempted, v)
		}
	}
	return tw.Flush()
}

func spread(xs []float64) string {
	q1, q2, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", q2, q1, q3)
}

// extract writes revision rev's committed files into dir, replacing what
// was there: the same file set a fresh checkout holds.
func extract(rev, dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return untarRev(rev, dir)
}

// untarRev writes revision rev's committed files under paths (all of them
// when none are given) into dir.
func untarRev(rev, dir string, paths ...string) error {
	archive := exec.Command("git", append([]string{"archive", "--format=tar", rev, "--"}, paths...)...)
	untar := exec.Command("tar", "-x", "-C", dir)
	pipe, err := archive.StdoutPipe()
	if err != nil {
		return err
	}
	untar.Stdin = pipe
	archive.Stderr, untar.Stderr = os.Stderr, os.Stderr
	if err := untar.Start(); err != nil {
		return err
	}
	archErr := archive.Run()
	if err := untar.Wait(); err != nil {
		return fmt.Errorf("extract %s: %w", rev, err)
	}
	if archErr != nil {
		return fmt.Errorf("git archive %s: %w", rev, archErr)
	}
	return nil
}

// runTree runs one untraced benchmark run in tree and returns its result.
func runTree(tree, workload string, seed, secs int) (*result, error) {
	cmd := exec.Command("bash", "bench/run.sh", "--workload", workload,
		"--seed", strconv.Itoa(seed), "--seconds", strconv.Itoa(secs), "--trace", "0")
	cmd.Dir = tree
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s: %s seed %d: %w", tree, workload, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s: %s seed %d: %w", tree, workload, seed, err)
	}
	return &res, nil
}

// verdict judges one metric over paired runs (base[i] and change[i] ran as
// pair i). A change that failed more operations than the base is worse,
// whatever its numbers: a request shed or degraded can make the rest
// faster and cheaper. A gain needs the change to win at least nine tenths
// of the pairs, ties counting for neither, and the medians to differ by
// more than the base's interquartile range. A change median worse than the
// base's by more than bound of it is a regression. Otherwise, when the
// base's own spread is wider than bound, the metric is unresolved unless
// every change run beats every base run.
func verdict(base, change []float64, lowerBetter bool, bound float64, moreFailures bool) (string, int) {
	better := func(a, b float64) bool {
		if lowerBetter {
			return a < b
		}
		return a > b
	}
	wins := 0
	for i := range base {
		if i < len(change) && better(change[i], base[i]) {
			wins++
		}
	}
	bq1, bmed, bq3 := quartiles(base)
	_, cmed, _ := quartiles(change)
	gain := cmed - bmed
	if lowerBetter {
		gain = -gain
	}
	allBetter := len(change) > 0
	for _, c := range change {
		for _, b := range base {
			if !better(c, b) {
				allBetter = false
			}
		}
	}
	switch {
	case moreFailures:
		return "worse", wins
	case 10*wins >= 9*len(base) && gain > bq3-bq1:
		return "gain", wins
	case -gain > bound*math.Abs(bmed):
		return "worse", wins
	case bq3-bq1 > bound*math.Abs(bmed) && !allBetter:
		return "unresolved", wins
	}
	return "no change", wins
}
