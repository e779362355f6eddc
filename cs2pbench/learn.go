package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"cs2p/internal/core"
	"cs2p/internal/engine"
	"cs2p/internal/hmm"
	"cs2p/internal/obs"
	"cs2p/internal/trace"
	"cs2p/internal/tracegen"
	"cs2p/internal/video"
)

// Learn workload shape.
const (
	// learnShift scales the ingested batch's throughput, the regime shift
	// the engine's online-learning tests inject.
	learnShift = 4.0
	// learnShiftHoldout is the shifted day-2 sessions kept out of the
	// update to judge it. Every other session is ingested.
	learnShiftHoldout = 400
	// learnShards splits the day-2 holdout into equal shards (about 150
	// sessions each), the unit whose evaluation time p50_ms reports. With
	// shards of 50 sessions the tail sat among single GC pauses and machine
	// hiccups and swung by half between runs.
	learnShards = 20
)

// learnInputs is the learn workload's data: tracegen's default two-day
// population (fixed, so every run trains the same model), day 1 to train
// and day 2 as the holdout. The seed picks a shifted holdout of day-2
// sessions and a regime-shifted ingest batch from the remaining sessions of
// both days (all of them, about 5600), each with its throughput scaled by
// learnShift.
type learnInputs struct {
	train, holdout     *trace.Dataset
	ingest, shiftedOut []*trace.Session
}

func newLearnInputs(seed int64) *learnInputs {
	cfg := tracegen.DefaultConfig()
	d, _ := tracegen.Generate(cfg)
	train, hold := d.SplitByTime(time.Unix(cfg.StartUnix+86400, 0))
	in := &learnInputs{train: train, holdout: hold}
	shift := func(s *trace.Session, i int) *trace.Session {
		tp := make([]float64, len(s.Throughput))
		for k, w := range s.Throughput {
			tp[k] = w * learnShift
		}
		return &trace.Session{ID: fmt.Sprintf("shift-%d", i), StartUnix: s.StartUnix, Features: s.Features, Throughput: tp}
	}
	r := newRand(seed)
	order := r.Perm(hold.Len())
	rest := append([]*trace.Session(nil), train.Sessions...)
	for i, idx := range order {
		if i < learnShiftHoldout {
			in.shiftedOut = append(in.shiftedOut, shift(hold.Sessions[idx], i))
		} else {
			rest = append(rest, hold.Sessions[idx])
		}
	}
	for i, idx := range r.Perm(len(rest)) {
		in.ingest = append(in.ingest, shift(rest[idx], learnShiftHoldout+i))
	}
	return in
}

// runLearn: offline core.Train on day 1, evaluation of every day-2 session,
// and one online update (Service.Ingest of the shifted batch, then
// Service.OnlineRetrain through the promotion gate), repeated in whole
// cycles until the window is spent. No HTTP.
func runLearn(o runOpts) (*outcome, error) {
	out := newOutcome()
	var in *learnInputs
	var setups []float64
	for r := 0; r < setupRounds; r++ {
		t0 := time.Now()
		in = newLearnInputs(o.seed)
		setups = append(setups, time.Since(t0).Seconds())
	}
	out.e2e["setup_s"] = quantile(setups, 0.5)

	var (
		trains                     []trainStats
		evalLat                    samples
		updS, updCPU, ingMs, retrS []float64
		ape                        float64
		last                       *core.Engine
		lastCfg                    core.Config
	)
	spec := video.Default()
	windowStart := time.Now()
	for cycle := 0; cycle == 0 || time.Since(windowStart) < o.window; cycle++ {
		// Each timed phase starts from a collected heap, so garbage left by
		// the one before is not charged to it.
		runtime.GC()
		eng, cfg, st, err := trainTimed(in.train, o.nproc)
		if err != nil {
			return nil, err
		}
		trains = append(trains, st)
		last, lastCfg = eng, cfg

		// Holdout: the program's session predictor over every day-2
		// session, in learnShards shards each timed as one operation; each
		// prediction is checked against the reference filter, and CS2P's
		// midstream APE against two baselines computed here.
		// Training is deterministic, so the first cycle's models serve as
		// the reference for every cycle.
		if out.check == nil {
			out.check = newChecker(eng.Export(in.train), spec)
		}
		c := out.check
		var cs2p, ls, hm apeSet
		sessions := in.holdout.Sessions
		runtime.GC()
		for shard := 0; shard < learnShards; shard++ {
			t0 := time.Now()
			for _, s := range sessions[shard*len(sessions)/learnShards : (shard+1)*len(sessions)/learnShards] {
				n := len(s.Throughput)
				if n == 0 {
					continue
				}
				preds := make([]float64, n)
				p := eng.NewSessionPredictor(s)
				for k, w := range s.Throughput {
					preds[k] = p.Predict()
					p.Observe(w)
				}
				if ip := preds[0]; !(ip > 0) || math.IsInf(ip, 0) {
					c.failf("%s: initial prediction %v is not positive and finite", s.ID, ip)
				}
				c.checkSeries(s.ID, p.ClusterID(), s.Throughput[:n-1], preds[1:])
				cs2p.addSeries(preds, s.Throughput)
				ls.addSeries(lastSamplePreds(s.Throughput), s.Throughput)
				hm.addSeries(harmonicPreds(s.Throughput), s.Throughput)
			}
			evalLat.add(time.Since(t0))
		}
		ape = cs2p.median()
		if l, h := ls.median(), hm.median(); !(ape < l && ape < h) {
			c.failf("holdout midstream APE %.4f is not below last-sample %.4f and harmonic-mean %.4f", ape, l, h)
		}
		if cycle == 0 {
			out.notef("holdout: %d sessions, midstream APE p50 CS2P %.4f, last-sample %.4f, harmonic mean %.4f",
				in.holdout.Len(), ape, ls.median(), hm.median())
		}

		// Online update through the promotion gate, configured as
		// cs2p-server -ingest configures it, with an intake ring that holds
		// the whole batch (-intake-capacity).
		svc := engine.NewServiceWithOptions(eng, cfg, spec, engine.ServiceOptions{})
		svc.SetLogf(func(string, ...any) {})
		svc.SetMetrics(obs.NewRegistry())
		svc.SetPromotionPolicy(&engine.PromotionPolicy{Tolerance: 0.1})
		if err := svc.EnableOnline(engine.OnlineOptions{IntakeCapacity: 2 * len(in.ingest)}); err != nil {
			return nil, fmt.Errorf("enabling online learning: %w", err)
		}
		gen0 := svc.ModelGeneration()
		runtime.GC()
		cpu0, t0 := cpuTime(), time.Now()
		_, err = svc.Ingest(in.ingest)
		ingest := time.Since(t0)
		out.acct.record(opIngest, err)
		t1 := time.Now()
		err = svc.OnlineRetrain()
		retrain := time.Since(t1)
		out.acct.record(opRetrain, err)
		upd, updC := time.Since(t0), cpuTime()-cpu0
		if err == nil {
			if svc.ModelGeneration() <= gen0 {
				c.failf("online update: generation %d did not advance from %d", svc.ModelGeneration(), gen0)
			}
			before, after := shiftedAPE(eng, in.shiftedOut), shiftedAPE(svc.Engine(), in.shiftedOut)
			if !(after < before) {
				c.failf("online update: promoted model's shifted-holdout APE %.4f is not below the incumbent's %.4f", after, before)
			}
			if cycle == 0 {
				out.notef("online update: shifted-holdout APE p50 incumbent %.4f, promoted %.4f", before, after)
			}
		}
		updS = append(updS, upd.Seconds())
		updCPU = append(updCPU, float64(updC)/1e6/float64(len(in.ingest)))
		ingMs = append(ingMs, float64(ingest)/1e6)
		retrS = append(retrS, retrain.Seconds())
	}
	out.e2e["heap_mb"] = liveHeapMB()
	trainMetrics(out, trains)
	ev := evalLat.summary()
	out.e2e["p50_ms"] = ev.p50
	out.e2e["ops_per_s"] = float64(len(in.ingest)) / quantile(updS, 0.5)
	out.e2e["cpu_ms_per_op"] = quantile(updCPU, 0.5)
	out.e2e["midstream_ape_p50"] = ape
	out.notef("%d cycles; holdout shard evaluation: p50 %.4f ms, tail p%.2f %.4f ms over %d samples; online update of %d sessions: median %.3f s",
		len(trains), ev.p50, ev.tailPctile, ev.tail, ev.n, len(in.ingest), quantile(updS, 0.5))

	if o.traced {
		L := out.layers
		L["engine.ingest_ms"] = quantile(ingMs, 0.5)
		L["engine.online_retrain_s"] = quantile(retrS, 0.5)
		// core.OnlineLearner alone, on the slice OnlineRetrain trains on
		// (its default holdout keeps the newest quarter).
		n := len(in.ingest)
		fresh := &trace.Dataset{EpochSeconds: in.train.EpochSeconds, Sessions: in.ingest[:n-n/4]}
		t0 := time.Now()
		l, err := core.NewOnlineLearner(last, core.DefaultOnlineConfig())
		if err == nil {
			err = l.Absorb(fresh.Sessions)
		}
		if err == nil {
			_, _, err = l.Candidate(fresh)
		}
		if err != nil {
			return nil, fmt.Errorf("online learner: %w", err)
		}
		L["core.online_absorb_s"] = time.Since(t0).Seconds()

		var steps int
		var stepT time.Duration
		for _, s := range in.holdout.Sessions {
			m, _ := last.ModelFor(s)
			f := hmm.NewFilter(m)
			t0 := time.Now()
			for _, w := range s.Throughput {
				f.Observe(w)
				f.PredictAhead(1)
			}
			stepT += time.Since(t0)
			steps += len(s.Throughput)
		}
		L["hmm.filter_step_ns"] = float64(stepT) / float64(steps)
		if err := trainLayers(out, in.train, lastCfg, trains[len(trains)-1]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// shiftedAPE is an engine's median midstream APE over sessions, with the
// engine routing each session and the reference filter predicting.
func shiftedAPE(e *core.Engine, sessions []*trace.Session) float64 {
	var a apeSet
	for _, s := range sessions {
		m, _ := e.ModelFor(s)
		c := &checker{models: refStore{"m": refFromModel(m)}}
		a.addSeries(c.referencePredictions("m", e.PredictInitial(s), s.Throughput), s.Throughput)
	}
	return a.median()
}
