package main

import (
	"math/rand"
	"strings"
	"testing"

	"cs2p/internal/core"
	"cs2p/internal/engine"
	"cs2p/internal/hmm"
	"cs2p/internal/mathx"
	"cs2p/internal/video"
)

// testModel is a small 3-state HMM with well separated states.
func testModel() *hmm.Model {
	return &hmm.Model{
		Pi: []float64{0.5, 0.3, 0.2},
		Trans: &mathx.Matrix{Rows: 3, Cols: 3, Data: []float64{
			0.90, 0.07, 0.03,
			0.05, 0.90, 0.05,
			0.02, 0.08, 0.90,
		}},
		Emit: []mathx.Gaussian{{Mu: 1, Sigma: 0.3}, {Mu: 3, Sigma: 0.6}, {Mu: 6, Sigma: 1}},
	}
}

func testChecker() *checker {
	ms := &core.ModelStore{
		Models: map[string]core.StoredModel{"c1": {Model: testModel(), InitialMedian: 2}},
		Global: core.StoredModel{Model: testModel(), InitialMedian: 2},
	}
	return newChecker(ms, video.Default())
}

// servedSeries runs the program's filter the way the engine serves a
// session: observe, then predict one step ahead.
func servedSeries(n int) (obs, preds []float64) {
	r := rand.New(rand.NewSource(7))
	f := hmm.NewFilter(testModel())
	for i := 0; i < n; i++ {
		w := 0.5 + 6*r.Float64()
		f.Observe(w)
		obs = append(obs, w)
		preds = append(preds, f.PredictAhead(1))
	}
	return obs, preds
}

func TestReferenceFilterAgreesWithServedPredictions(t *testing.T) {
	c := testChecker()
	obs, preds := servedSeries(200)
	c.checkSeries("s", "c1", obs, preds)
	if !c.ok() {
		t.Fatalf("check failed on the program's own predictions: %v", c.errs)
	}
	if c.compared+c.ties != len(obs) || c.compared == 0 {
		t.Fatalf("compared %d + ties %d, want %d", c.compared, c.ties, len(obs))
	}
}

func TestOnlineCheck(t *testing.T) {
	obs, preds := servedSeries(60)
	c := testChecker()
	o := c.start("s", validStart())
	for k := range obs {
		c.step("s", o, obs[k], preds[k])
	}
	if !c.ok() || c.compared+c.ties != len(obs) || len(c.apes) != len(obs)-1 {
		t.Fatalf("online check: ok=%v compared=%d ties=%d apes=%d: %v", c.ok(), c.compared, c.ties, len(c.apes), c.errs)
	}

	bad := testChecker()
	o = bad.start("s", validStart())
	for k := range obs {
		p := preds[k]
		if k == 30 {
			p *= 1 + 1e-6
		}
		bad.step("s", o, obs[k], p)
	}
	if bad.ok() {
		t.Fatal("a perturbed prediction passed the online check")
	}
}

func TestPerturbedPredictionFailsTheCheck(t *testing.T) {
	c := testChecker()
	obs, preds := servedSeries(50)
	preds[17] *= 1 + 1e-6
	c.checkSeries("s", "c1", obs, preds)
	if c.ok() {
		t.Fatal("a perturbed prediction passed the check")
	}
}

func validStart() engine.StartResponse {
	// 1.2 Mbps: the highest rung at or below it is 1000 kbps (level 2).
	return engine.StartResponse{InitialPredictionMbps: 1.2, ClusterID: "c1", RebufferEstimateSec: 4.5,
		SuggestedInitialLevel: 2, SuggestedInitialKbps: 1000}
}

func TestStartProperties(t *testing.T) {
	c := testChecker()
	c.checkStart("ok", validStart())
	low := validStart()
	low.InitialPredictionMbps, low.SuggestedInitialLevel, low.SuggestedInitialKbps = 0.2, 0, 350
	c.checkStart("lowest-rung", low)
	if !c.ok() {
		t.Fatalf("valid starts failed: %v", c.errs)
	}

	cases := map[string]func(*engine.StartResponse){
		"non-positive initial":  func(r *engine.StartResponse) { r.InitialPredictionMbps = 0 },
		"level too high":        func(r *engine.StartResponse) { r.SuggestedInitialLevel, r.SuggestedInitialKbps = 3, 2000 },
		"kbps off the ladder":   func(r *engine.StartResponse) { r.SuggestedInitialKbps = 999 },
		"negative forecast":     func(r *engine.StartResponse) { r.RebufferEstimateSec = -1 },
		"forecast over length":  func(r *engine.StartResponse) { r.RebufferEstimateSec = 261 },
		"forecast inconsistent": func(r *engine.StartResponse) { r.RebufferEstimateSec = 4.6 },
		"unknown cluster":       func(r *engine.StartResponse) { r.ClusterID = "nope" },
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			c := testChecker()
			c.checkStart("first", validStart())
			r := validStart()
			mutate(&r)
			c.checkStart("second", r)
			if c.ok() {
				t.Fatal("violated property passed the check")
			}
		})
	}
}

// fullOutcome is a run outcome with every end-to-end metric measured.
func fullOutcome(c *checker) *outcome {
	out := newOutcome()
	for _, d := range endToEnd {
		out.e2e[d.name] = 1.5
	}
	out.check = c
	return out
}

func TestFailedCheckFailsTheRun(t *testing.T) {
	var sb strings.Builder
	c := testChecker()
	obs, preds := servedSeries(20)
	c.checkSeries("s", "c1", obs, preds)
	res, err := report("test", fullOutcome(c), false, &sb)
	if err != nil || !res.Correct {
		t.Fatalf("clean run reported %v, correct=%v", err, res.Correct)
	}

	preds[3] += 0.5
	bad := testChecker()
	bad.checkSeries("s", "c1", obs, preds)
	res, err = report("test", fullOutcome(bad), false, &sb)
	if err == nil || res.Correct {
		t.Fatalf("perturbed prediction: err=%v correct=%v, want a failed run", err, res.Correct)
	}

	prop := testChecker()
	prop.checkSeries("s", "c1", obs[:3], preds[:3])
	r := validStart()
	r.RebufferEstimateSec = 500
	prop.checkStart("s", r)
	res, err = report("test", fullOutcome(prop), false, &sb)
	if err == nil || res.Correct {
		t.Fatalf("violated property: err=%v correct=%v, want a failed run", err, res.Correct)
	}
}

func TestUnmeasuredMetricFailsTheRun(t *testing.T) {
	var sb strings.Builder
	c := testChecker()
	obs, preds := servedSeries(5)
	c.checkSeries("s", "c1", obs, preds)
	out := fullOutcome(c)
	delete(out.e2e, "p50_ms")
	if _, err := report("test", out, false, &sb); err == nil {
		t.Fatal("a missing end-to-end metric did not fail the run")
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	q1, med, q3 := quartiles(v)
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", q1, med, q3)
	}
}

func TestBaselines(t *testing.T) {
	obs := []float64{2, 4, 4}
	ls, hm := lastSamplePreds(obs), harmonicPreds(obs)
	if ls[1] != 2 || ls[2] != 4 {
		t.Fatalf("last sample %v", ls)
	}
	if hm[1] != 2 || hm[2] != 2/(1/2.0+1/4.0) {
		t.Fatalf("harmonic mean %v", hm)
	}
}
