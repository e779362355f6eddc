package main

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"cs2p/internal/core"
	"cs2p/internal/engine"
	"cs2p/internal/hmm"
	"cs2p/internal/video"
)

// The output check recomputes every served prediction with a forward filter
// written here from the served model's parameters (π₀, transition matrix,
// Gaussian emissions), following Algorithm 1 of the paper: after each
// observation a one-step push, a reweight by the emission likelihood, and
// the mean of the most likely state of the pushed distribution. The
// prediction before the first observation is the cluster median the start
// response carries; checkStart checks its properties. The filter shares no
// code with internal/hmm.

// emissionFloor is the smallest emission likelihood the served model's
// filter admits (an observation far outside every state would otherwise
// zero the posterior). It is part of the model's definition, so the
// reference filter applies the same floor.
const emissionFloor = 1e-290

// relTol is the floating-point tolerance between a served prediction and
// the reference one. Predictions are state means, so outside argmax
// near-ties they agree exactly.
const relTol = 1e-9

// tieTol is the relative gap below which the two most likely states count
// as tied: rounding differences between the two filters may then pick
// either, so such predictions are exempt from comparison and counted.
const tieTol = 1e-9

// refModel is one HMM in the reference filter's own representation.
type refModel struct {
	pi    []float64
	trans [][]float64
	mu    []float64
	sigma []float64
}

// refStore holds the reference copies of every model a trained engine
// serves, keyed by cluster id ("global" for the fallback).
type refStore map[string]*refModel

// refFromModel copies one HMM's parameters.
func refFromModel(m *hmm.Model) *refModel {
	n := len(m.Pi)
	r := &refModel{
		pi:    append([]float64(nil), m.Pi...),
		trans: make([][]float64, n),
		mu:    make([]float64, n),
		sigma: make([]float64, n),
	}
	for i := 0; i < n; i++ {
		r.trans[i] = append([]float64(nil), m.Trans.Data[i*m.Trans.Cols:(i+1)*m.Trans.Cols]...)
		r.mu[i] = m.Emit[i].Mu
		r.sigma[i] = m.Emit[i].Sigma
	}
	return r
}

// newRefStore copies the parameters out of an exported model store.
func newRefStore(ms *core.ModelStore) refStore {
	rs := refStore{core.GlobalClusterID: refFromModel(ms.Global.Model)}
	for id, sm := range ms.Models {
		rs[id] = refFromModel(sm.Model)
	}
	return rs
}

// refFilter is the reference forward filter over one session.
type refFilter struct {
	m       *refModel
	post    []float64
	tmp     []float64
	started bool
}

func newRefFilter(m *refModel) *refFilter {
	return &refFilter{m: m, post: append([]float64(nil), m.pi...), tmp: make([]float64, len(m.pi))}
}

// push computes dst = src · P.
func (f *refFilter) push(src, dst []float64) {
	for j := range dst {
		var s float64
		for i, p := range src {
			s += p * f.m.trans[i][j]
		}
		dst[j] = s
	}
}

func gaussPDF(x, mu, sigma float64) float64 {
	if sigma <= 0 {
		if x == mu {
			return math.Inf(1)
		}
		return 0
	}
	z := (x - mu) / sigma
	return math.Exp(-0.5*z*z) / (sigma * math.Sqrt(2*math.Pi))
}

// observe absorbs one measured throughput.
func (f *refFilter) observe(w float64) {
	if f.started {
		f.push(f.post, f.tmp)
		copy(f.post, f.tmp)
	}
	f.started = true
	var sum float64
	for i := range f.post {
		e := gaussPDF(w, f.m.mu[i], f.m.sigma[i])
		if !(e >= emissionFloor) {
			e = emissionFloor
		}
		f.post[i] *= e
		sum += f.post[i]
	}
	if !(sum > 0) || math.IsInf(sum, 0) {
		for i := range f.post {
			f.post[i] = 1 / float64(len(f.post))
		}
		return
	}
	for i := range f.post {
		f.post[i] /= sum
	}
}

// predict returns the one-step prediction after at least one observation,
// and whether the two most likely states are tied within tieTol.
func (f *refFilter) predict() (float64, bool) {
	f.push(f.post, f.tmp)
	best, second := 0, -1
	for i := 1; i < len(f.tmp); i++ {
		if f.tmp[i] > f.tmp[best] {
			best, second = i, best
		} else if second < 0 || f.tmp[i] > f.tmp[second] {
			second = i
		}
	}
	tie := second >= 0 && f.tmp[best]-f.tmp[second] <= tieTol*f.tmp[best]
	return f.m.mu[best], tie
}

// checker verifies served outputs against the reference filter and the
// method's properties. Its methods are safe for concurrent use.
type checker struct {
	mu     sync.Mutex
	models refStore
	spec   video.Spec
	// compared counts predictions compared, ties those exempt as argmax
	// near-ties.
	compared, ties int
	// forecasts remembers the rebuffer forecast per (cluster, level).
	forecasts map[string]float64
	errs      []string
	// apes holds the APE of every served one-step prediction checked
	// online, at float32 so that the record the harness keeps stays small
	// beside the live heap it measures.
	apes []float32
}

func newChecker(ms *core.ModelStore, spec video.Spec) *checker {
	return &checker{models: newRefStore(ms), spec: spec, forecasts: map[string]float64{}}
}

// maxErrs bounds the failure messages kept; the count is kept in full.
const maxErrs = 8

func (c *checker) failf(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.fail(format, args...)
}

// fail records a failure; the caller holds mu.
func (c *checker) fail(format string, args ...any) {
	if len(c.errs) < maxErrs {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	} else if len(c.errs) == maxErrs {
		c.errs = append(c.errs, "further failures omitted")
	}
}

// ok reports whether no check has failed.
func (c *checker) ok() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.errs) == 0
}

// level returns the ladder rung the paper's rule picks for an initial
// prediction: the highest bitrate at or below it, else the lowest rung.
func (c *checker) level(mbps float64) int {
	lvl := 0
	for i, kbps := range c.spec.BitratesKbps {
		if kbps <= mbps*1000 {
			lvl = i
		}
	}
	return lvl
}

// checkStart verifies the properties of one session-start response.
func (c *checker) checkStart(id string, r engine.StartResponse) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ip := r.InitialPredictionMbps
	if !(ip > 0) || math.IsInf(ip, 0) {
		c.fail("%s: initial prediction %v is not positive and finite", id, ip)
	}
	if _, ok := c.models[r.ClusterID]; !ok {
		c.fail("%s: cluster id %q names no model of the trained engine", id, r.ClusterID)
	}
	if want := c.level(ip); r.SuggestedInitialLevel != want {
		c.fail("%s: suggested level %d for %.4f Mbps, want %d", id, r.SuggestedInitialLevel, ip, want)
	} else if r.SuggestedInitialKbps != c.spec.BitratesKbps[want] {
		c.fail("%s: suggested %.0f kbps, ladder rung %d is %.0f", id, r.SuggestedInitialKbps, want, c.spec.BitratesKbps[want])
	}
	rb := r.RebufferEstimateSec
	if !(rb >= 0 && rb <= c.spec.LengthSeconds) {
		c.fail("%s: rebuffer forecast %v outside [0, %v]", id, rb, c.spec.LengthSeconds)
	}
	key := fmt.Sprintf("%s|%d", r.ClusterID, r.SuggestedInitialLevel)
	if prev, ok := c.forecasts[key]; !ok {
		c.forecasts[key] = rb
	} else if prev != rb {
		c.fail("%s: rebuffer forecast %v differs from %v for the same cluster model and level (%s)", id, rb, prev, key)
	}
}

// checkSeries runs the reference filter over a session's observed series
// and compares each served prediction: preds[k] is the prediction served
// after obs[k] was observed.
func (c *checker) checkSeries(id, clusterID string, obs, preds []float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.models[clusterID]
	if !ok {
		c.fail("%s: cluster id %q names no model", id, clusterID)
		return
	}
	if len(preds) != len(obs) {
		c.fail("%s: %d predictions for %d observations", id, len(preds), len(obs))
		return
	}
	f := newRefFilter(m)
	for k, w := range obs {
		c.compare(id, k, f, w, preds[k])
	}
}

// compare feeds one observation to a session's reference filter and
// compares the prediction served after it. The caller holds mu.
func (c *checker) compare(id string, k int, f *refFilter, w, got float64) {
	f.observe(w)
	want, tie := f.predict()
	if tie {
		c.ties++
		return
	}
	c.compared++
	if !(math.Abs(got-want) <= relTol*math.Abs(want)) {
		c.fail("%s: prediction %d = %v, reference filter gives %v", id, k, got, want)
	}
}

// online checks a served session as it runs, so the harness keeps no
// per-chunk record: start checks the start response and returns the
// session's reference filter (nil when its cluster has no model); step
// checks one observe+predict round trip and scores the session's previous
// prediction against this observation.
type online struct {
	f        *refFilter
	k        int
	lastPred float64
}

func (c *checker) start(id string, r engine.StartResponse) *online {
	c.checkStart(id, r)
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.models[r.ClusterID]
	if !ok {
		return nil
	}
	return &online{f: newRefFilter(m)}
}

func (c *checker) step(id string, o *online, w, pred float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if o == nil {
		c.fail("%s: prediction served for a session without a checked start", id)
		return
	}
	if o.k > 0 && w > 0 {
		c.apes = append(c.apes, float32(math.Abs(o.lastPred-w)/w))
	}
	c.compare(id, o.k, o.f, w, pred)
	o.k++
	o.lastPred = pred
}

// apeMedian is the median of the APEs scored online.
func (c *checker) apeMedian() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	v := make([]float64, len(c.apes))
	for i, a := range c.apes {
		v[i] = float64(a)
	}
	return quantile(v, 0.5)
}

// referencePredictions returns the reference filter's prediction before
// each epoch of a series: the initial prediction first, then the one-step
// prediction after each observation.
func (c *checker) referencePredictions(clusterID string, initial float64, obs []float64) []float64 {
	m := c.models[clusterID]
	out := make([]float64, len(obs))
	if m == nil || len(obs) == 0 {
		return out
	}
	f := newRefFilter(m)
	out[0] = initial
	for k := 0; k+1 < len(obs); k++ {
		f.observe(obs[k])
		out[k+1], _ = f.predict()
	}
	return out
}

// apeSet accumulates absolute percentage errors of midstream predictions
// (every epoch after the first).
type apeSet struct{ v []float64 }

// addSeries scores predictions made before each epoch; index 0 (the
// initial epoch) is excluded.
func (a *apeSet) addSeries(pred, obs []float64) {
	for k := 1; k < len(obs) && k < len(pred); k++ {
		if obs[k] > 0 {
			a.v = append(a.v, math.Abs(pred[k]-obs[k])/obs[k])
		}
	}
}

func (a *apeSet) median() float64 { return quantile(a.v, 0.5) }

// quantile is the linear-interpolated q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

// lastSamplePreds is the last-sample baseline: each epoch is predicted by
// the previous one (the first has no prediction and is never scored).
func lastSamplePreds(obs []float64) []float64 {
	out := make([]float64, len(obs))
	for k := 1; k < len(obs); k++ {
		out[k] = obs[k-1]
	}
	return out
}

// harmonicPreds is the harmonic-mean baseline: each epoch is predicted by
// the harmonic mean of every earlier positive sample of the session.
func harmonicPreds(obs []float64) []float64 {
	out := make([]float64, len(obs))
	var inv float64
	n := 0
	for k := 1; k < len(obs); k++ {
		if w := obs[k-1]; w > 0 {
			inv += 1 / w
			n++
		}
		if n > 0 {
			out[k] = float64(n) / inv
		} else {
			out[k] = math.NaN()
		}
	}
	return out
}
