package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"runtime"
	"sync"
	"time"

	"crossfeature/internal/attack"
	"crossfeature/internal/core"
	"crossfeature/internal/eval"
	"crossfeature/internal/experiments"
	"crossfeature/internal/features"
	"crossfeature/internal/ml"
	"crossfeature/internal/netsim"
)

const (
	// figureScale shrinks the quick preset's time axis (durations, attack
	// onsets and sessions, warmup) so one Figure 1 takes a few seconds and
	// a run holds several; network size and trace counts stay quick-scale.
	figureScale = 0.2
	// trainRows is offline-train's dataset size: paper-scale 140 features
	// by 2000 records.
	trainRows      = 2000
	smokeTrainRows = 300
	falseAlarmRate = 0.02
)

// learnerKey names a base learner in metric names.
func learnerKey(name string) string {
	switch name {
	case "C4.5":
		return "c45"
	case "RIPPER":
		return "ripper"
	default:
		return "nbc"
	}
}

// figurePreset is the quick preset, time axis shrunk by figureScale, with
// every trace seed shifted by 1000·(seed−1). Smoke scale starts from the
// smoke preset instead.
func figurePreset(seed int64, smoke bool) experiments.Preset {
	p := experiments.QuickPreset()
	if smoke {
		p = experiments.SmokePreset()
	} else {
		for _, x := range []*float64{&p.Duration, &p.BlackHoleStart, &p.DropStart,
			&p.SessionDuration, &p.SingleSessionDuration, &p.Warmup} {
			*x *= figureScale
		}
		for i := range p.SingleStarts {
			p.SingleStarts[i] *= figureScale
		}
	}
	shift := 1000 * (seed - 1)
	p.TrainSeed += shift
	for i := range p.NormalSeeds {
		p.NormalSeeds[i] += shift
	}
	for i := range p.AttackSeeds {
		p.AttackSeeds[i] += shift
	}
	return p
}

// figureIteration reproduces the paper's Figure 1 once. Untraced, it is
// exactly what a researcher runs: Lab.Figure1, whose report is the
// golden-checked digest. Traced, the same pipeline is driven phase by
// phase through the public functions.
func figureIteration(seed int64, traced, smoke bool) (*childResult, error) {
	p := figurePreset(seed, smoke)
	if traced {
		return tracedFigure1(p)
	}
	lab, err := experiments.NewLab(p)
	if err != nil {
		return nil, err
	}
	ready()
	start, cpu := time.Now(), selfCPU()
	var report bytes.Buffer
	curves, err := lab.Figure1(&report)
	if err != nil {
		return nil, err
	}
	wall, cpu := time.Since(start), selfCPU()-cpu
	records := 0
	for _, sc := range experiments.FourScenarios() {
		train, err := lab.RunTrace(sc, experiments.NoAttack, p.TrainSeed)
		if err != nil {
			return nil, err
		}
		d, err := lab.Data(sc)
		if err != nil {
			return nil, err
		}
		records += len(train.Vectors)
		for _, t := range append(d.Normal, d.Mixed...) {
			records += len(t.Vectors)
		}
	}
	aucs := newBitsHash()
	for _, c := range curves {
		aucs.add(c.AUC)
	}
	return &childResult{
		Wall:    wall.Seconds(),
		CPU:     cpu.Seconds(),
		Records: records,
		Digest:  fmt.Sprintf("%x", sha256.Sum256(report.Bytes())),
		Check:   aucs.sum(),
	}, nil
}

// simJob is one trace of the traced Figure 1.
type simJob struct {
	sc    experiments.Scenario
	mix   experiments.AttackMix
	seed  int64
	net   *netsim.Network
	trace *experiments.Trace
}

// tracedFigure1 runs Figure 1's pipeline as six sequential phases, each a
// top-level span: simulate every trace (netsim.New and Run on GOMAXPROCS
// workers, as the Lab's pool does), extract features, fit the
// discretisers, train every (scenario, learner) analyzer, score the test
// traces, and compute the curves. The resulting AUCs must equal the
// untraced Lab.Figure1's bit for bit.
func tracedFigure1(p experiments.Preset) (*childResult, error) {
	rec := newRecorder()
	const run = "iter"
	scenarios := experiments.FourScenarios()
	var jobs []*simJob
	for _, sc := range scenarios {
		jobs = append(jobs, &simJob{sc: sc, mix: experiments.NoAttack, seed: p.TrainSeed})
		for _, s := range p.NormalSeeds {
			jobs = append(jobs, &simJob{sc: sc, mix: experiments.NoAttack, seed: s})
		}
		for _, s := range p.AttackSeeds {
			jobs = append(jobs, &simJob{sc: sc, mix: experiments.Mixed, seed: s})
		}
	}
	ready()
	start, cpu := time.Now(), selfCPU()
	layers := map[string]float64{}

	phase := rec.begin(run, "netsim.simulate", 0)
	errs := make([]error, len(jobs))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j *simJob) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			errs[i] = rec.time(run, "netsim.run", phase, func() error {
				var err error
				if j.net, err = netsim.New(simConfig(p, j)); err != nil {
					return err
				}
				return j.net.Run()
			})
		}(i, j)
	}
	wg.Wait()
	rec.end(phase)
	events := 0.0
	for i, j := range jobs {
		if errs[i] != nil {
			return nil, errs[i]
		}
		events += float64(j.net.Engine().Processed())
	}

	records := 0
	rec.time(run, "features.extract", 0, func() error {
		for _, j := range jobs {
			j.trace = &experiments.Trace{
				Vectors: features.FromSnapshots(j.net.Snapshots(0)),
				Plan:    j.net.Plan(), Mix: j.mix, Seed: j.seed,
			}
			j.net = nil
			records += len(j.trace.Vectors)
		}
		return nil
	})

	// Per scenario: the discretiser and training set from its training
	// trace, then its normal and mixed test traces in the Lab's order.
	type scenarioData struct {
		disc  *features.Discretizer
		ds    *ml.Dataset
		tests []*experiments.Trace
	}
	data := make([]scenarioData, len(scenarios))
	per := len(jobs) / len(scenarios)
	err := rec.time(run, "features.fit", 0, func() error {
		for i := range scenarios {
			js := jobs[i*per : (i+1)*per]
			var rows [][]float64
			for _, v := range js[0].trace.Vectors {
				if v.Time >= p.Warmup {
					rows = append(rows, v.Values)
				}
			}
			disc, err := features.Fit(rows, features.Names(), features.FitOptions{
				Buckets: p.Buckets, SampleSize: p.PrefilterSize, Seed: p.TrainSeed,
			})
			if err != nil {
				return err
			}
			ds, err := disc.Dataset(rows)
			if err != nil {
				return err
			}
			data[i] = scenarioData{disc: disc, ds: ds}
			for _, j := range js[1:] {
				data[i].tests = append(data[i].tests, j.trace)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	type unit struct {
		sc      int
		learner ml.Learner
		a       *core.Analyzer
		events  []eval.Scored
	}
	var units []*unit
	for i := range scenarios {
		for _, l := range experiments.Learners() {
			units = append(units, &unit{sc: i, learner: l})
		}
	}
	phase = rec.begin(run, "core.train", 0)
	for _, u := range units {
		k := learnerKey(u.learner.Name())
		alloc := allocatedMB()
		err := rec.time(run, "core.train."+k, phase, func() (err error) {
			u.a, err = core.Train(data[u.sc].ds, u.learner, core.TrainOptions{Parallelism: p.Parallelism})
			return err
		})
		if err != nil {
			return nil, err
		}
		layers["core.train_alloc_mb."+k] += allocatedMB() - alloc
		layers["ml.submodels."+k] += float64(u.a.NumModels())
	}
	rec.end(phase)

	transformed, scored := 0, 0
	phase = rec.begin(run, "core.score", 0)
	for _, u := range units {
		k := learnerKey(u.learner.Name())
		rec.time(run, "core.compile", phase, func() error { u.a.Compile(); return nil })
		for _, t := range data[u.sc].tests {
			xs := make([][]int, len(t.Vectors))
			err := rec.time(run, "features.transform", phase, func() (err error) {
				for i, v := range t.Vectors {
					if xs[i], err = data[u.sc].disc.Transform(v.Values); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			var scores []float64
			rec.time(run, "core.score_all."+k, phase, func() error {
				scores = u.a.ScoreAll(ml.DatasetOf(u.a.Attrs, xs), core.Probability)
				return nil
			})
			transformed += len(xs)
			scored += len(xs)
			labels := t.Labels()
			for i, s := range scores {
				if t.Vectors[i].Time >= p.Warmup {
					u.events = append(u.events, eval.Scored{Score: s, Intrusion: labels[i]})
				}
			}
		}
	}
	rec.end(phase)

	aucs := newBitsHash()
	rec.time(run, "eval.curve", 0, func() error {
		for _, u := range units {
			aucs.add(eval.AUC(eval.Curve(u.events)))
		}
		return nil
	})
	wall, cpu := time.Since(start), selfCPU()-cpu

	layers["netsim.simulate_s"] = rec.seconds("netsim.simulate")
	layers["netsim.events"] = events
	layers["netsim.events_per_s"] = events / rec.seconds("netsim.run")
	layers["features.extract_s"] = rec.seconds("features.extract")
	layers["features.fit_s"] = rec.seconds("features.fit")
	layers["features.transform_us_per_rec"] = rec.seconds("features.transform") * 1e6 / float64(transformed)
	layers["eval.curve_s"] = rec.seconds("eval.curve")
	coreLayers(rec, layers, scored)
	layers["trace.unattributed_s"] = (wall - rec.topLevel()).Seconds()
	return &childResult{Wall: wall.Seconds(), CPU: cpu.Seconds(), Records: records, Check: aucs.sum(), Layers: layers, Spans: rec.spans}, nil
}

// simConfig is the Lab's netsim configuration for one trace.
func simConfig(p experiments.Preset, j *simJob) netsim.Config {
	cfg := netsim.DefaultConfig()
	cfg.Nodes = p.Nodes
	cfg.Connections = p.Connections
	cfg.Duration = p.Duration
	cfg.SampleInterval = p.Sample
	cfg.Seed = j.seed
	cfg.WorkloadSeed = p.WorkloadSeed
	cfg.Routing = j.sc.Routing
	cfg.Transport = j.sc.Transport
	if j.mix == experiments.Mixed {
		cfg.Attacks = mixedAttacks(p)
	}
	return cfg
}

// mixedAttacks is the preset's mixed-intrusion schedule: black hole from
// BlackHoleStart and selective dropping from DropStart, in sessions of
// SessionDuration separated by equal gaps until the run ends.
func mixedAttacks(p experiments.Preset) []attack.Spec {
	sessions := func(start float64) []attack.Session {
		var out []attack.Session
		for t := start; t < p.Duration; t += 2 * p.SessionDuration {
			out = append(out, attack.Session{Start: t, Duration: min(p.SessionDuration, p.Duration-t)})
		}
		return out
	}
	return []attack.Spec{
		{Kind: attack.BlackHole, Node: p.AttackerNode, Sessions: sessions(p.BlackHoleStart)},
		{Kind: attack.SelectiveDrop, Node: p.AttackerNode, Target: p.DropTarget, Sessions: sessions(p.DropStart)},
	}
}

// trainIteration is offline-train: on a paper-scale synthetic audit
// dataset, for each base learner, core.Train, Compile, ScoreAll over the
// training set and Calibrate at a 2% false-alarm rate. The score and
// threshold bits are the output digest. Traced, each call is a top-level
// span and training allocations are counted.
func trainIteration(seed int64, traced, smoke bool) (*childResult, error) {
	rows := trainRows
	if smoke {
		rows = smokeTrainRows
	}
	ds := experiments.SyntheticAuditDataset(6+seed, rows)
	ready()
	var rec *recorder
	if traced {
		rec = newRecorder()
	}
	const run = "iter"
	layers := map[string]float64{}
	out := newBitsHash()
	start, cpu := time.Now(), selfCPU()
	for _, l := range experiments.Learners() {
		k := learnerKey(l.Name())
		var a *core.Analyzer
		alloc := 0.0
		if traced {
			alloc = allocatedMB()
		}
		err := rec.time(run, "core.train."+k, 0, func() (err error) {
			a, err = core.Train(ds, l, core.TrainOptions{})
			return err
		})
		if err != nil {
			return nil, err
		}
		if traced {
			layers["core.train_alloc_mb."+k] = allocatedMB() - alloc
			layers["ml.submodels."+k] = float64(a.NumModels())
		}
		rec.time(run, "core.compile", 0, func() error { a.Compile(); return nil })
		var scores []float64
		rec.time(run, "core.score_all."+k, 0, func() error {
			scores = a.ScoreAll(ds, core.Probability)
			return nil
		})
		var th float64
		rec.time(run, "core.calibrate", 0, func() error {
			th, _ = core.Calibrate(scores, falseAlarmRate)
			return nil
		})
		out.add(scores...)
		out.add(th)
	}
	wall, cpu := time.Since(start), selfCPU()-cpu
	res := &childResult{Wall: wall.Seconds(), CPU: cpu.Seconds(), Records: 3 * rows, Digest: out.sum(), Check: out.sum()}
	if traced {
		coreLayers(rec, layers, 3*rows)
		layers["core.calibrate_ms"] = rec.seconds("core.calibrate") * 1000
		layers["trace.unattributed_s"] = (wall - rec.topLevel()).Seconds()
		res.Layers, res.Spans = layers, rec.spans
	}
	return res, nil
}

// coreLayers derives the per-learner training and scoring times, compile
// time and scoring cost per record from the spans.
func coreLayers(rec *recorder, layers map[string]float64, scored int) {
	all := 0.0
	for _, k := range []string{"c45", "ripper", "nbc"} {
		layers["core.train_s."+k] = rec.seconds("core.train." + k)
		layers["core.score_all_s."+k] = rec.seconds("core.score_all." + k)
		all += layers["core.score_all_s."+k]
	}
	layers["core.compile_ms"] = rec.seconds("core.compile") * 1000
	layers["core.score_all_us_per_rec"] = all * 1e6 / float64(scored)
}

// allocatedMB is the process's cumulative heap allocation, in MB.
func allocatedMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / (1 << 20)
}
