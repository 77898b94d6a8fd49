package nbayes

import "crossfeature/internal/ml"

// Fused is the compiled inference form of a whole cross-feature Naive
// Bayes ensemble: one model per attribute of a schema, model i predicting
// attribute i from the others. Scoring an event needs every model's
// posterior, and each attribute's value feeds every model but its own, so
// the tables are laid out attribute-major across models rather than one
// slab per model.
//
// Every (model, class) pair owns one slot of a width-wide accumulator,
// models in ascending index order. For each attribute a and value v one
// contiguous block of the slab holds log p(a=v | c) for every slot except
// model a's own:
//
//	slots:     [m0 c0..c? | m1 c0..c? | ... | mL-1 c0..c?]   width
//	block a,v: every slot, model a's span left out           width - own[a]
//	           slab[off[a] + v*(width-own[a]) : ...]
//
// Accumulate adds one block per attribute, in ascending attribute order,
// as two ranges around model a's span. Every slot therefore sums the same
// log terms in the same order as Model.PredictProbaInto — starting from
// the same prior, skipping the same absent, unseen and own-target
// attributes — and the same softmax then normalises each model's span, so
// the posteriors are bit-identical to the models'. The slab holds exactly
// the float64s of the models' tables. A Fused snapshot never observes
// later mutation of its source models.
type Fused struct {
	slab  []float64
	prior []float64 // every model's LogPrior at its slots
	width int

	// Per model i, which is also per attribute i: the span of model i's
	// slots (classes 0 when the model is absent) and the attribute's
	// blocks.
	base    []int32
	classes []int32
	card    []int32 // values of attribute i
	off     []int   // slab offset of attribute i's value-0 block
	models  int
}

// Fuse builds the fused form of a cross-feature ensemble over attrs, where
// models[i] predicts attribute i and nil entries are masked out. It
// returns nil — the caller then scores through the models themselves —
// unless at least one model is present and every present model is a
// *Model with exactly the shape Fit produces for its attribute
// (CheckShape).
//
// The slab fills block by block, appending into one preallocated slice:
// each block gathers one value from every other model's class rows for
// the attribute, and those rows stay cache-resident across the
// attribute's values. On a gob-loaded 140-attribute synthetic ensemble
// this took 3.7-4.4 ms, against 3.9-5.0 ms for compiling each model into
// a slab of its own and 6.1-7.6 ms for scattering the tables in source
// order (model by model, at the block stride).
func Fuse(attrs []ml.Attr, models []ml.Classifier) *Fused {
	if len(models) != len(attrs) {
		return nil
	}
	nb := make([]*Model, len(models))
	f := &Fused{
		base:    make([]int32, len(attrs)),
		classes: make([]int32, len(attrs)),
		card:    make([]int32, len(attrs)),
		off:     make([]int, len(attrs)),
	}
	for i, c := range models {
		f.base[i] = int32(f.width)
		if c == nil {
			continue
		}
		m, ok := c.(*Model)
		if !ok || m.CheckShape(attrs, i) != nil {
			return nil
		}
		nb[i] = m
		f.classes[i] = int32(len(m.LogPrior))
		f.width += len(m.LogPrior)
		f.models++
	}
	if f.models == 0 {
		return nil
	}
	f.prior = make([]float64, 0, f.width)
	for _, model := range nb {
		if model != nil {
			f.prior = append(f.prior, model.LogPrior...)
		}
	}
	total := 0
	for a, at := range attrs {
		f.card[a] = int32(at.Card)
		f.off[a] = total
		total += at.Card * (f.width - int(f.classes[a]))
	}
	slab := make([]float64, 0, total)
	tabs := make([][][]float64, 0, len(nb)) // attribute a's tables, model order
	for a := range attrs {
		tabs = tabs[:0]
		for m, model := range nb {
			if model != nil && m != a { // model a's span is left out of a's blocks
				tabs = append(tabs, model.LogCond[a])
			}
		}
		for v := 0; v < int(f.card[a]); v++ {
			for _, tab := range tabs {
				for _, row := range tab {
					slab = append(slab, row[v])
				}
			}
		}
	}
	f.slab = slab
	return f
}

// Width is the accumulator length Accumulate needs: the total class
// count of the fused models.
func (f *Fused) Width() int { return f.width }

// NumModels reports how many models were fused.
func (f *Fused) NumModels() int { return f.models }

// NumEntries reports the fused table size: slab plus prior entries, the
// same count as the models' own tables.
func (f *Fused) NumEntries() int { return len(f.slab) + len(f.prior) }

// Accumulate writes every model's unnormalised log posterior for event x
// into acc, which must have length >= Width. Attributes beyond x, and
// values outside an attribute's range, contribute nothing, exactly as in
// Model.PredictProbaInto.
func (f *Fused) Accumulate(x []int, acc []float64) {
	acc = acc[:f.width]
	copy(acc, f.prior)
	n := len(f.card)
	if len(x) < n {
		n = len(x)
	}
	for a, v := range x[:n] {
		if v < 0 || v >= int(f.card[a]) {
			continue // unseen value: contributes nothing
		}
		lo, own := int(f.base[a]), int(f.classes[a])
		w := f.width - own
		blk := f.slab[f.off[a]+v*w : f.off[a]+(v+1)*w]
		addInto(acc[:lo], blk[:lo])
		addInto(acc[lo+own:], blk[lo:])
	}
}

// addInto adds src into dst element-wise; len(src) must equal len(dst).
// Each element is its own sum, so unrolling four wide changes no result;
// it scored single events about 1.5x faster than the plain loop on the
// 140-attribute synthetic set.
func addInto(dst, src []float64) {
	src = src[:len(dst)]
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		d, s := dst[i:i+4:i+4], src[i:i+4:i+4]
		d[0] += s[0]
		d[1] += s[1]
		d[2] += s[2]
		d[3] += s[3]
	}
	for ; i < len(dst); i++ {
		dst[i] += src[i]
	}
}

// Posterior softmax-normalises model m's span of acc in place and returns
// it: the distribution Model.PredictProbaInto returns for the event acc
// was accumulated from. Normalise each span at most once per Accumulate.
func (f *Fused) Posterior(acc []float64, m int) []float64 {
	lo := int(f.base[m])
	out := acc[lo : lo+int(f.classes[m])]
	softmax(out)
	return out
}

// TrueScore is the ml.ScoreKernel contract over a fused accumulator: the
// probability model m assigns to class v (0 at or beyond its class count)
// and whether v is the argmax. It normalises m's span of acc in place, so
// score each model at most once per Accumulate.
func (f *Fused) TrueScore(acc []float64, m, v int) (p float64, match bool) {
	out := f.Posterior(acc, m)
	if v >= 0 && v < len(out) {
		p = out[v]
	}
	return p, ml.ArgMax(out) == v
}
