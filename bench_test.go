// Package crossfeature's root benchmark suite regenerates each of the
// paper's tables and figures (see DESIGN.md's experiment index). One
// benchmark exists per table/figure; each runs the same pipeline as
// cmd/experiments at a reduced scale so `go test -bench=.` completes in
// minutes while preserving the experiment structure. AUC-style quality
// metrics are attached to the benchmark output via ReportMetric, making
// shape regressions visible alongside timing.
package crossfeature_test

import (
	"io"
	"testing"

	"crossfeature/internal/core"
	"crossfeature/internal/eval"
	"crossfeature/internal/experiments"
	"crossfeature/internal/features"
	"crossfeature/internal/ml/c45"
	"crossfeature/internal/ml/nbayes"
	"crossfeature/internal/ml/ripper"
	"crossfeature/internal/netsim"
	"crossfeature/internal/packet"
	"crossfeature/internal/trace"
)

// benchPreset shrinks the paper preset far enough for iterated benchmark
// runs: a 600 s, 12-node scenario with the same attack structure.
func benchPreset() experiments.Preset {
	p := experiments.PaperPreset()
	p.Nodes = 12
	p.Connections = 8
	p.Duration = 600
	p.Warmup = 150
	p.TrainSeed = 11
	p.NormalSeeds = []int64{21}
	p.AttackSeeds = []int64{31}
	p.BlackHoleStart = 200
	p.DropStart = 350
	p.SessionDuration = 50
	p.SingleStarts = []float64{200, 350, 500}
	p.SingleSessionDuration = 30
	p.AttackerNode = 5
	p.PrefilterSize = 0
	return p
}

func newBenchLab(b *testing.B) *experiments.Lab {
	b.Helper()
	lab, err := experiments.NewLab(benchPreset())
	if err != nil {
		b.Fatal(err)
	}
	return lab
}

// BenchmarkTable1TwoNodeNormalEvents regenerates Table 1.
func BenchmarkTable1TwoNodeNormalEvents(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if events := experiments.TwoNodeNormalEvents(); len(events) != 4 {
			b.Fatal("wrong table 1")
		}
	}
}

// BenchmarkTable2TwoNodeSubModels regenerates Table 2's three sub-models.
func BenchmarkTable2TwoNodeSubModels(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for labeled := 0; labeled < 3; labeled++ {
			experiments.BuildTwoNodeSubModel(labeled)
		}
	}
}

// BenchmarkTable3TwoNodeScores regenerates Table 3 and validates the
// paper's threshold observation.
func BenchmarkTable3TwoNodeScores(b *testing.B) {
	for i := 0; i < b.N; i++ {
		scores := experiments.TwoNodeScores()
		for _, s := range scores {
			if s.Normal && s.AvgProb < 0.5 {
				b.Fatal("table 3 separation broken")
			}
		}
	}
}

// BenchmarkTable45FeatureConstruction measures Feature Set I+II extraction
// from a live audit collector (Tables 4 and 5).
func BenchmarkTable45FeatureConstruction(b *testing.B) {
	types := []packet.Type{packet.Data, packet.RouteRequest, packet.RouteReply, packet.RouteError, packet.Hello}
	col := trace.NewCollector()
	i := 0
	for t := 0.0; t < 900; t += 0.5 {
		ty := types[i%len(types)]
		dir := trace.Direction(i % 4)
		if !trace.ValidCombo(trace.ClassData, dir) && ty == packet.Data {
			dir = trace.Received
		}
		col.RecordPacket(t, ty, dir)
		col.RecordRoute(trace.RouteEvent(i % trace.NumRouteEvents))
		i++
	}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		snap := col.Snapshot(900, 5, 2.5)
		v := features.FromSnapshot(snap)
		if len(v.Values) != features.NumFeatures {
			b.Fatal("wrong feature count")
		}
	}
}

// BenchmarkFigure1RecallPrecision regenerates Figure 1 (reduced scale):
// recall-precision curves for the three learners.
func BenchmarkFigure1RecallPrecision(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab := newBenchLab(b)
		results, err := lab.Figure1(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		reportBestAUC(b, results)
	}
}

// BenchmarkFigure2MatchVsProb regenerates Figure 2 (reduced scale).
func BenchmarkFigure2MatchVsProb(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab := newBenchLab(b)
		results, err := lab.Figure2(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		reportBestAUC(b, results)
	}
}

// BenchmarkFigure3TimeSeries regenerates Figure 3 (reduced scale).
func BenchmarkFigure3TimeSeries(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab := newBenchLab(b)
		if _, err := lab.Figure3(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure4Density regenerates Figure 4 (reduced scale).
func BenchmarkFigure4Density(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab := newBenchLab(b)
		if _, err := lab.Figure4(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5PerIntrusion regenerates Figure 5 (reduced scale).
func BenchmarkFigure5PerIntrusion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab := newBenchLab(b)
		if _, err := lab.Figure5(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure6PerIntrusionDensity regenerates Figure 6 (reduced scale).
func BenchmarkFigure6PerIntrusionDensity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab := newBenchLab(b)
		if _, err := lab.Figure6(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func reportBestAUC(b *testing.B, results []experiments.CurveResult) {
	b.Helper()
	best := 0.0
	for _, r := range results {
		if r.AUC > best {
			best = r.AUC
		}
	}
	b.ReportMetric(best, "bestAUC")
}

// BenchmarkAblations runs the design-choice ablation suite (bucket count,
// sampling-period subsets, model reduction, scorer matrix, continuous
// variant) at reduced scale.
func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab := newBenchLab(b)
		if _, err := lab.Ablations(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// --- component micro-benchmarks -------------------------------------------------

// simBenchSeeds is the fixed seed cycle of the simulator benchmarks: op i
// simulates seed simBenchSeeds[i%len(simBenchSeeds)], so the work per op
// does not depend on b.N, and a -benchtime that is a multiple of the cycle
// length weighs every seed equally.
var simBenchSeeds = [...]int64{1, 2, 3, 4}

// benchSimulation runs the default scenario shape at bench scale under the
// given routing protocol and reports the mean events per op.
func benchSimulation(b *testing.B, routing netsim.RoutingKind) {
	b.ReportAllocs()
	var events uint64
	for i := 0; i < b.N; i++ {
		cfg := netsim.DefaultConfig()
		cfg.Nodes = 20
		cfg.Connections = 15
		cfg.Duration = 200
		cfg.Routing = routing
		cfg.Seed = simBenchSeeds[i%len(simBenchSeeds)]
		net, err := netsim.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := net.Run(); err != nil {
			b.Fatal(err)
		}
		events += net.Engine().Processed()
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}

// BenchmarkSimulationAODVUDP measures raw simulator throughput for the
// default scenario shape.
func BenchmarkSimulationAODVUDP(b *testing.B) { benchSimulation(b, netsim.AODV) }

// BenchmarkSimulationDSRUDP measures DSR (promiscuous) throughput.
func BenchmarkSimulationDSRUDP(b *testing.B) { benchSimulation(b, netsim.DSR) }

// benchDataset builds a discretised normal dataset once for the training
// and scoring micro-benchmarks.
func benchDataset(b *testing.B) (*experiments.ScenarioData, *experiments.Lab) {
	b.Helper()
	lab := newBenchLab(b)
	d, err := lab.Data(experiments.Scenario{Routing: netsim.AODV, Transport: netsim.CBR})
	if err != nil {
		b.Fatal(err)
	}
	return d, lab
}

// BenchmarkTrainC45 measures Algorithm 1 with the C4.5 base learner on a
// full 140-feature dataset.
func BenchmarkTrainC45(b *testing.B) {
	d, _ := benchDataset(b)
	learner := c45.NewLearner()
	learner.HoldoutFrac = 1.0 / 3.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Train(d.TrainDS, learner, core.TrainOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainRIPPER measures Algorithm 1 with RIPPER.
func BenchmarkTrainRIPPER(b *testing.B) {
	d, _ := benchDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Train(d.TrainDS, ripper.NewLearner(), core.TrainOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainNBC measures Algorithm 1 with Naive Bayes.
func BenchmarkTrainNBC(b *testing.B) {
	d, _ := benchDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Train(d.TrainDS, nbayes.NewLearner(), core.TrainOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScoreEvent measures Algorithms 2 and 3 per-event scoring cost
// (the online detection path).
func BenchmarkScoreEvent(b *testing.B) {
	d, _ := benchDataset(b)
	learner := c45.NewLearner()
	learner.HoldoutFrac = 1.0 / 3.0
	a, err := core.Train(d.TrainDS, learner, core.TrainOptions{})
	if err != nil {
		b.Fatal(err)
	}
	x := d.TrainEvents[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.Score(x, core.Probability)
		_ = a.Score(x, core.MatchCount)
	}
}

// BenchmarkDiscretize measures feature-vector discretisation, the
// per-record preprocessing cost of online detection.
func BenchmarkDiscretize(b *testing.B) {
	d, lab := benchDataset(b)
	tr, err := lab.RunTrace(experiments.Scenario{Routing: netsim.AODV, Transport: netsim.CBR},
		experiments.NoAttack, 21)
	if err != nil {
		b.Fatal(err)
	}
	row := tr.Vectors[len(tr.Vectors)-1].Values
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Disc.Transform(row); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPRCurve measures the evaluation machinery on a realistic score
// set size.
func BenchmarkPRCurve(b *testing.B) {
	events := make([]eval.Scored, 4000)
	for i := range events {
		events[i] = eval.Scored{Score: float64(i%997) / 997, Intrusion: i%3 == 0}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts := eval.Curve(events)
		_ = eval.AUC(pts)
	}
}
