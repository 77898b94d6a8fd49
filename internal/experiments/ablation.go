package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"text/tabwriter"

	"crossfeature/internal/core"
	"crossfeature/internal/eval"
	"crossfeature/internal/features"
	"crossfeature/internal/ml"
	"crossfeature/internal/ml/factor"
	"crossfeature/internal/netsim"
)

// The ablation suite goes beyond the paper's figures to probe the design
// choices DESIGN.md calls out and the directions its future-work section
// names: the discretisation bucket count, the contribution of each
// sampling window, combining rule x learner interactions, reducing the
// number of sub-models ("fewer number of models involved in the
// combination process"), and the continuous (regression) variant.

// AblationResult is one ablation measurement.
type AblationResult struct {
	Study   string
	Variant string
	AUC     float64
	Optimal eval.Point
}

// ablationScenario is the fixed test bed: AODV/UDP, the scenario the
// paper uses for its own single-variable studies (Figures 5-6).
func ablationScenario() Scenario {
	return Scenario{Routing: netsim.AODV, Transport: netsim.CBR}
}

// evaluateDiscrete trains on a prepared dataset and scores the scenario's
// test traces with the given scorer, returning curve statistics.
func (l *Lab) evaluateDiscrete(d *ScenarioData, disc *features.Discretizer, ds *ml.Dataset,
	learner ml.Learner, scorer core.Scorer, keep func(*core.Analyzer) *core.Analyzer) (eval.Point, float64, error) {
	a, err := core.Train(ds, learner, core.TrainOptions{Parallelism: l.Preset.Parallelism})
	if err != nil {
		return eval.Point{}, 0, err
	}
	if keep != nil {
		a = keep(a)
	}
	var events []eval.Scored
	normals, err := LabelledScores(a, disc, d.Normal, scorer, l.Preset.Warmup)
	if err != nil {
		return eval.Point{}, 0, err
	}
	attacks, err := LabelledScores(a, disc, d.Mixed, scorer, l.Preset.Warmup)
	if err != nil {
		return eval.Point{}, 0, err
	}
	events = append(events, normals...)
	events = append(events, attacks...)
	pts := eval.Curve(events)
	return eval.OptimalPoint(pts), eval.AUC(pts), nil
}

// AblationBuckets sweeps the equal-frequency bucket count (the paper
// fixes it at 5).
func (l *Lab) AblationBuckets(w io.Writer) ([]AblationResult, error) {
	sc := ablationScenario()
	d, err := l.Data(sc)
	if err != nil {
		return nil, err
	}
	learner, err := LearnerByName("C4.5")
	if err != nil {
		return nil, err
	}
	train, err := l.RunTrace(sc, NoAttack, l.Preset.TrainSeed)
	if err != nil {
		return nil, err
	}
	rows := features.Matrix(trimWarmup(train.Vectors, l.Preset.Warmup))
	bucketCounts := []int{3, 5, 8}
	results := make([]AblationResult, len(bucketCounts))
	err = forEach(len(bucketCounts), func(i int) error {
		buckets := bucketCounts[i]
		disc, err := features.Fit(rows, features.Names(), features.FitOptions{
			Buckets: buckets, SampleSize: l.Preset.PrefilterSize, Seed: l.Preset.TrainSeed,
		})
		if err != nil {
			return err
		}
		ds, err := disc.Dataset(rows)
		if err != nil {
			return err
		}
		opt, auc, err := l.evaluateDiscrete(d, disc, ds, learner, core.Probability, nil)
		if err != nil {
			return err
		}
		results[i] = AblationResult{
			Study:   "buckets",
			Variant: fmt.Sprintf("%d buckets", buckets),
			AUC:     auc,
			Optimal: opt,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	printAblation(w, "Ablation: equal-frequency bucket count (C4.5, AODV/UDP)", results)
	return results, nil
}

// AblationPeriods retrains with traffic features restricted to a single
// sampling window, quantifying what each horizon contributes.
func (l *Lab) AblationPeriods(w io.Writer) ([]AblationResult, error) {
	sc := ablationScenario()
	d, err := l.Data(sc)
	if err != nil {
		return nil, err
	}
	learner, err := LearnerByName("C4.5")
	if err != nil {
		return nil, err
	}
	// All variants mask the same fully trained analyzer: dropped
	// sub-models are zeroed out rather than refitted, which isolates the
	// combination effect without refitting the discretiser — and means
	// training happens once, not once per variant.
	a, _, err := l.Train(sc, learner)
	if err != nil {
		return nil, err
	}
	variants := []string{"all", "5s", "60s", "900s"}
	results := make([]AblationResult, len(variants))
	err = forEach(len(variants), func(i int) error {
		variant := variants[i]
		masked := maskAnalyzer(a, featureSubset(variant))
		var events []eval.Scored
		for _, group := range [][]*Trace{d.Normal, d.Mixed} {
			scored, err := LabelledScores(masked, d.Disc, group, core.Probability, l.Preset.Warmup)
			if err != nil {
				return err
			}
			events = append(events, scored...)
		}
		pts := eval.Curve(events)
		results[i] = AblationResult{
			Study:   "periods",
			Variant: variant,
			AUC:     eval.AUC(pts),
			Optimal: eval.OptimalPoint(pts),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	printAblation(w, "Ablation: sampling-period subsets (C4.5, AODV/UDP)", results)
	return results, nil
}

// featureSubset returns the retained feature indices for a period variant:
// the 8 route/topology features plus the traffic features of one window
// ("all" keeps everything).
func featureSubset(variant string) map[int]bool {
	if variant == "all" {
		return nil
	}
	keep := make(map[int]bool)
	for i, name := range features.Names() {
		if i < features.NumRouteFeatures || strings.Contains(name, "."+variant+".") {
			keep[i] = true
		}
	}
	return keep
}

// maskAnalyzer returns a copy of a with only the kept sub-models (nil set
// keeps everything).
func maskAnalyzer(a *core.Analyzer, keep map[int]bool) *core.Analyzer {
	if keep == nil {
		return a
	}
	masked := &core.Analyzer{
		Attrs:       a.Attrs,
		Models:      make([]ml.Classifier, len(a.Models)),
		LearnerName: a.LearnerName,
	}
	for i, m := range a.Models {
		if keep[i] {
			masked.Models[i] = m
		}
	}
	return masked
}

// AblationModelReduction implements the paper's future-work direction of
// using fewer sub-models: rank features by how predictable they are on
// normal training data and keep only the top k most predictable
// sub-models in the combination.
func (l *Lab) AblationModelReduction(w io.Writer) ([]AblationResult, error) {
	sc := ablationScenario()
	d, err := l.Data(sc)
	if err != nil {
		return nil, err
	}
	learner, err := LearnerByName("C4.5")
	if err != nil {
		return nil, err
	}
	a, _, err := l.Train(sc, learner)
	if err != nil {
		return nil, err
	}
	// Rank sub-models by mean probability of the true class on training
	// data (Train records it as NormalProb): high means the feature is
	// reliably predictable from the rest.
	type ranked struct {
		idx  int
		prob float64
	}
	order := make([]ranked, 0, len(a.Models))
	for j, m := range a.Models {
		if m != nil {
			order = append(order, ranked{idx: j, prob: a.NormalProb[j]})
		}
	}
	sort.Slice(order, func(i, j int) bool { return order[i].prob > order[j].prob })

	ks := []int{20, 50, 100, len(order)}
	results := make([]AblationResult, len(ks))
	err = forEach(len(ks), func(i int) error {
		k := ks[i]
		if k > len(order) {
			k = len(order)
		}
		keep := make(map[int]bool, k)
		for _, r := range order[:k] {
			keep[r.idx] = true
		}
		masked := maskAnalyzer(a, keep)
		var events []eval.Scored
		for _, group := range [][]*Trace{d.Normal, d.Mixed} {
			scored, err := LabelledScores(masked, d.Disc, group, core.Probability, l.Preset.Warmup)
			if err != nil {
				return err
			}
			events = append(events, scored...)
		}
		pts := eval.Curve(events)
		results[i] = AblationResult{
			Study:   "model-reduction",
			Variant: fmt.Sprintf("top %d of %d sub-models", k, len(order)),
			AUC:     eval.AUC(pts),
			Optimal: eval.OptimalPoint(pts),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	printAblation(w, "Ablation: reduced sub-model count (C4.5, AODV/UDP)", results)
	return results, nil
}

// AblationScorerMatrix extends Figure 2 to every learner: both combining
// rules for C4.5, RIPPER and NBC.
func (l *Lab) AblationScorerMatrix(w io.Writer) ([]AblationResult, error) {
	sc := ablationScenario()
	type unit struct {
		learner ml.Learner
		scorer  core.Scorer
	}
	var units []unit
	for _, learner := range Learners() {
		for _, scorer := range []core.Scorer{core.MatchCount, core.Probability} {
			units = append(units, unit{learner: learner, scorer: scorer})
		}
	}
	results := make([]AblationResult, len(units))
	err := forEach(len(units), func(i int) error {
		r, err := l.runCurve(sc, units[i].learner, units[i].scorer)
		if err != nil {
			return err
		}
		results[i] = AblationResult{
			Study:   "scorer-matrix",
			Variant: fmt.Sprintf("%s / %s", units[i].learner.Name(), units[i].scorer),
			AUC:     r.AUC,
			Optimal: r.Optimal,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	printAblation(w, "Ablation: combining rule x learner (AODV/UDP)", results)
	return results, nil
}

// AblationContinuous compares the paper's continuous variant (multiple
// linear regression with log-distance scoring, no discretisation) against
// the discrete pipeline on the same traces.
func (l *Lab) AblationContinuous(w io.Writer) ([]AblationResult, error) {
	sc := ablationScenario()
	d, err := l.Data(sc)
	if err != nil {
		return nil, err
	}
	train, err := l.RunTrace(sc, NoAttack, l.Preset.TrainSeed)
	if err != nil {
		return nil, err
	}
	rows := features.Matrix(trimWarmup(train.Vectors, l.Preset.Warmup))
	ca, err := core.TrainContinuous(rows, features.Names(), core.ContinuousOptions{
		Parallelism: l.Preset.Parallelism,
	})
	if err != nil {
		return nil, err
	}
	// Continuous distances grow with anomaly; negate so the shared
	// "alarm below threshold" machinery applies.
	var events []eval.Scored
	score := func(traces []*Trace) error {
		for _, t := range traces {
			labels := t.Labels()
			for i, v := range t.Vectors {
				if v.Time < l.Preset.Warmup {
					continue
				}
				events = append(events, eval.Scored{
					Score:     -ca.AvgLogDistance(v.Values),
					Intrusion: labels[i],
				})
			}
		}
		return nil
	}
	if err := score(d.Normal); err != nil {
		return nil, err
	}
	if err := score(d.Mixed); err != nil {
		return nil, err
	}
	pts := eval.Curve(events)
	results := []AblationResult{{
		Study:   "continuous",
		Variant: "linear regression + log distance",
		AUC:     eval.AUC(pts),
		Optimal: eval.OptimalPoint(pts),
	}}
	// Reference: the discrete C4.5 pipeline on the same traces.
	learner, err := LearnerByName("C4.5")
	if err != nil {
		return nil, err
	}
	r, err := l.runCurve(sc, learner, core.Probability)
	if err != nil {
		return nil, err
	}
	results = append(results, AblationResult{
		Study:   "continuous",
		Variant: "discrete C4.5 reference",
		AUC:     r.AUC,
		Optimal: r.Optimal,
	})
	printAblation(w, "Ablation: continuous (regression) variant vs discrete (AODV/UDP)", results)
	return results, nil
}

// AblationFactorAnalysis compares the paper's named factor-analysis
// direction against cross-feature analysis: a PCA model fitted on normal
// continuous vectors scores events by reconstruction residual (distance
// from the normal subspace), with the discrete C4.5 pipeline as the
// reference on identical traces.
func (l *Lab) AblationFactorAnalysis(w io.Writer) ([]AblationResult, error) {
	sc := ablationScenario()
	d, err := l.Data(sc)
	if err != nil {
		return nil, err
	}
	train, err := l.RunTrace(sc, NoAttack, l.Preset.TrainSeed)
	if err != nil {
		return nil, err
	}
	rows := features.Matrix(trimWarmup(train.Vectors, l.Preset.Warmup))
	var results []AblationResult
	for _, k := range []int{10, 30} {
		fm, err := factor.Fit(rows, k)
		if err != nil {
			return nil, err
		}
		var events []eval.Scored
		for _, group := range [][]*Trace{d.Normal, d.Mixed} {
			for _, t := range group {
				labels := t.Labels()
				for i, v := range t.Vectors {
					if v.Time < l.Preset.Warmup {
						continue
					}
					// Residuals grow with anomaly; negate for the shared
					// alarm-below-threshold convention.
					events = append(events, eval.Scored{
						Score:     -fm.ReconstructionError(v.Values),
						Intrusion: labels[i],
					})
				}
			}
		}
		pts := eval.Curve(events)
		results = append(results, AblationResult{
			Study:   "factor-analysis",
			Variant: fmt.Sprintf("%d components (%.0f%% variance)", k, 100*fm.ExplainedVariance()),
			AUC:     eval.AUC(pts),
			Optimal: eval.OptimalPoint(pts),
		})
	}
	learner, err := LearnerByName("C4.5")
	if err != nil {
		return nil, err
	}
	r, err := l.runCurve(sc, learner, core.Probability)
	if err != nil {
		return nil, err
	}
	results = append(results, AblationResult{
		Study:   "factor-analysis",
		Variant: "cross-feature C4.5 reference",
		AUC:     r.AUC,
		Optimal: r.Optimal,
	})
	printAblation(w, "Ablation: factor-analysis residual detector vs cross-feature (AODV/UDP)", results)
	return results, nil
}

// Ablations runs the full suite.
func (l *Lab) Ablations(w io.Writer) ([]AblationResult, error) {
	var all []AblationResult
	for _, f := range []func(io.Writer) ([]AblationResult, error){
		l.AblationBuckets,
		l.AblationPeriods,
		l.AblationModelReduction,
		l.AblationFeatureReduction,
		l.AblationScorerMatrix,
		l.AblationContinuous,
		l.AblationFactorAnalysis,
	} {
		rs, err := f(w)
		if err != nil {
			return nil, err
		}
		all = append(all, rs...)
	}
	return all, nil
}

func printAblation(w io.Writer, title string, results []AblationResult) {
	fmt.Fprintln(w, title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  variant\tAUC\toptimal recall\toptimal precision")
	for _, r := range results {
		fmt.Fprintf(tw, "  %s\t%.3f\t%.2f\t%.2f\n", r.Variant, r.AUC, r.Optimal.Recall, r.Optimal.Precision)
	}
	tw.Flush()
}
