package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cs2p/internal/cluster"
	"cs2p/internal/core"
	"cs2p/internal/engine"
	"cs2p/internal/hmm"
	"cs2p/internal/obs"
	"cs2p/internal/trace"
	"cs2p/internal/video"
)

// player issues one session's operations through the front-door client,
// accounting each and, in a traced run, timing each client call.
type player struct {
	t     *tier
	acct  *accounting
	check *checker
	ts    *traceSet // nil in untraced runs
}

func (p *player) timed(r route, start time.Time) {
	if p.ts.recording() {
		p.ts.calls[r].add(time.Since(start))
	}
}

func (p *player) start(s *served) error {
	t0 := time.Now()
	resp, err := p.t.client.StartSession(s.id, s.src.Features, s.src.StartUnix)
	p.timed(routeStart, t0)
	p.acct.record(opStart, err)
	if err == nil {
		s.start, s.started = resp, true
		s.check = p.check.start(s.id, resp)
	}
	return err
}

func (p *player) chunk(s *served) error {
	w := s.nextObs()
	t0 := time.Now()
	pred, err := p.t.client.ObserveAndPredict(s.id, w, 1)
	p.timed(routeChunk, t0)
	p.acct.record(opChunk, err)
	if err == nil {
		p.check.step(s.id, s.check, w, pred)
		if p.ts != nil {
			s.obs = append(s.obs, w)
			s.preds = append(s.preds, pred)
		}
	}
	return err
}

func (p *player) log(s *served) error {
	t0 := time.Now()
	err := p.t.client.Log(engine.SessionLog{SessionID: s.id, Strategy: "CS2P"})
	p.timed(routeLog, t0)
	p.acct.record(opLog, err)
	return err
}

// play runs a whole churn session back to back: start, every chunk, log.
func (p *player) play(s *served) {
	_ = p.start(s)
	for k := 0; k < s.remaining; k++ {
		_ = p.chunk(s)
	}
	_ = p.log(s)
}

// setupRounds is how many rounds a serving workload runs. Each round sets
// up a tier from scratch (timed: setup_s is the median) and measures one
// slice of the window on it, so set-up, training and every measured phase
// are spread over the whole run rather than bunched at one end of it.
const setupRounds = 3

// servingRun carries one serving workload's rounds.
type servingRun struct {
	o      runOpts
	out    *outcome
	ts     *traceSet
	setups []float64
	trains []trainStats
	model  *servingModel
}

func newServingRun(o runOpts) *servingRun {
	sr := &servingRun{o: o, out: newOutcome()}
	if o.traced {
		sr.ts = &traceSet{}
	}
	return sr
}

// rounds runs setupRounds rounds of: train and boot a tier, prepare it
// (both timed as set-up), measure one slice of the window with the trace
// instruments on, tear the tier down. The live heap is read after the last
// slice, with its tier still up. The first round's model store builds the
// checker, which checks every response online as it arrives: training is
// deterministic, so every round serves the same models, and a round that
// did not would fail the check.
func (sr *servingRun) rounds(spec tierSpec, prepare func(t *tier, pool []*trace.Session, r int) error, slice func(t *tier, r int, dur time.Duration)) error {
	dur := sr.o.window / setupRounds
	for r := 0; r < setupRounds; r++ {
		t0 := time.Now()
		train, pool := servingPopulation()
		m, err := trainServing(train, sr.o.nproc)
		if err != nil {
			return err
		}
		if sr.out.check == nil {
			sr.out.check = newChecker(m.store, video.Default())
		}
		t, err := bootTier(m, spec, sr.ts)
		if err != nil {
			return err
		}
		if prepare != nil {
			if err := prepare(t, pool.Sessions, r); err != nil {
				t.close()
				return err
			}
		}
		sr.setups = append(sr.setups, time.Since(t0).Seconds())
		sr.trains = append(sr.trains, m.stats)
		sr.model = m
		runtime.GC() // start each slice from a collected heap, not set-up's garbage
		sr.ts.enable(true)
		slice(t, r, dur)
		sr.ts.enable(false)
		if r == setupRounds-1 {
			sr.out.e2e["heap_mb"] = liveHeapMB()
		}
		t.close()
	}
	sr.out.e2e["setup_s"] = quantile(sr.setups, 0.5)
	trainMetrics(sr.out, sr.trains)
	return nil
}

// closedLoop accumulates the closed-loop phases of every round.
type closedLoop struct {
	done, chunks int64
	elapsed, cpu time.Duration
	alloc        uint64
}

// run measures f, which returns the work units and chunks it completed.
func (c *closedLoop) run(f func() (units, chunks int64)) {
	runtime.GC()
	cpu0, alloc0, t0 := cpuTime(), totalAlloc(), time.Now()
	u, ch := f()
	c.elapsed += time.Since(t0)
	c.cpu += cpuTime() - cpu0
	c.alloc += totalAlloc() - alloc0
	c.done += u
	c.chunks += ch
}

func (c *closedLoop) report(out *outcome) {
	out.e2e["ops_per_s"] = float64(c.done) / c.elapsed.Seconds()
	out.e2e["cpu_ms_per_op"] = float64(c.cpu) / 1e6 / float64(c.done)
}

// trainMetrics reports the median training figures over setup rounds.
func trainMetrics(out *outcome, trains []trainStats) {
	var wall, cpu, alloc []float64
	for _, s := range trains {
		wall = append(wall, s.wall.Seconds())
		cpu = append(cpu, s.cpu.Seconds())
		alloc = append(alloc, float64(s.allocBytes)/(1<<20))
	}
	out.notef("core.Train: wall %.3f s, CPU %.3f s (medians of %d)", quantile(wall, 0.5), quantile(cpu, 0.5), len(trains))
	out.e2e["train_cpu_s"] = quantile(cpu, 0.5)
	out.e2e["train_alloc_mb"] = quantile(alloc, 0.5)
}

// Churn workload shape.
const (
	churnOpenRate     = 30.0 // session arrivals per second, open loop
	churnCadence      = 50 * time.Millisecond
	churnMedianChunks = 3.0 // lognormal session length in chunks
	churnLengthSigma  = 0.6
	churnMaxChunks    = 12
	churnOpenShare    = 0.5 // share of each slice spent open-loop
)

// runChurn: one direct replica on JSON v1; in each round, open-loop
// arrivals of short sessions, then closed-loop sessions by nproc players.
// Session start does most of the work.
func runChurn(o runOpts) (*outcome, error) {
	sr := newServingRun(o)
	out := sr.out
	_, pool := servingPopulation()
	rng := newRand(o.seed)
	order := rng.Perm(pool.Len())
	lengths := make([]int, 4096)
	for i := range lengths {
		lengths[i] = lognormalLength(rng, churnMedianChunks, churnLengthSigma, churnMaxChunks)
	}
	// session i is the same input in every run with this seed; closed-loop
	// sessions start half-way through the seeded order.
	session := func(prefix string, i int) *served {
		if prefix == "c" {
			i += len(order) / 2
		}
		src := pool.Sessions[order[i%len(order)]]
		n := lengths[i%len(lengths)]
		if n > len(src.Throughput) {
			n = len(src.Throughput)
		}
		return &served{id: fmt.Sprintf("%s-%d", prefix, i), src: src, remaining: n}
	}

	var (
		startLat, chunkLat samples
		late               maxDur
		mu                 sync.Mutex
		all                []*served
		cl                 closedLoop
		arrivals           int
		openNext, next     int // next session indexes, open and closed loop
	)
	err := sr.rounds(tierSpec{replicas: 1, conns: o.nproc}, nil, func(t *tier, r int, dur time.Duration) {
		pl := &player{t: t, acct: &out.acct, check: out.check, ts: sr.ts}

		// Open loop: session arrivals at the fixed rate churnOpenRate;
		// each session's chunks are due on a fixed cadence after its start.
		// Latency counts from the due time. (Poisson arrivals at the same
		// mean rate queued starts behind each other on the nproc
		// connections often enough that the start tail swung by a factor
		// of three between runs.)
		sliceStart := time.Now()
		n := int(dur.Seconds() * churnOpenShare * churnOpenRate)
		var events []event
		open := make([]*served, n)
		chans := make([]chan time.Time, n)
		for i := range open {
			at := time.Duration(float64(i) / churnOpenRate * float64(time.Second))
			open[i] = session("o", openNext)
			open[i].round = r
			openNext++
			// One start and every chunk; the buffer holds them all.
			chans[i] = make(chan time.Time, 1+open[i].remaining)
			for k := 0; k <= open[i].remaining; k++ {
				events = append(events, event{due: at + time.Duration(k)*churnCadence, session: i})
			}
		}
		sort.SliceStable(events, func(a, b int) bool { return events[a].due < events[b].due })
		var wg sync.WaitGroup
		for i, s := range open {
			wg.Add(1)
			go func(s *served, ch chan time.Time) {
				defer wg.Done()
				due := <-ch
				_ = pl.start(s)
				startLat.add(time.Since(due))
				for due = range ch {
					_ = pl.chunk(s)
					chunkLat.add(time.Since(due))
				}
				_ = pl.log(s)
			}(s, chans[i])
		}
		late.observe(dispatch(time.Now().Add(10*time.Millisecond), events, chans))
		wg.Wait()
		if o.traced {
			all = append(all, open...)
		}
		arrivals += n

		// Closed loop: nproc players run whole sessions back to back.
		deadline := sliceStart.Add(dur)
		if min := time.Now().Add(dur / 4); deadline.Before(min) {
			deadline = min
		}
		base := next
		var taken atomic.Int64
		cl.run(func() (int64, int64) {
			var done, chunks atomic.Int64
			var pwg sync.WaitGroup
			for p := 0; p < o.nproc; p++ {
				pwg.Add(1)
				go func() {
					defer pwg.Done()
					var mine []*served
					for time.Now().Before(deadline) {
						s := session("c", base+int(taken.Add(1)-1))
						s.round = r
						pl.play(s)
						done.Add(1)
						chunks.Add(int64(s.remaining))
						mine = append(mine, s)
					}
					if o.traced {
						mu.Lock()
						all = append(all, mine...)
						mu.Unlock()
					}
				}()
			}
			pwg.Wait()
			return done.Load(), chunks.Load()
		})
		next += int(taken.Load())
	})
	if err != nil {
		return nil, err
	}

	st := startLat.summary()
	out.e2e["p50_ms"] = st.p50
	cl.report(out)
	out.notef("open loop: %d session arrivals at %.0f/s, start latency from intended time: p50 %.3f ms, tail p%.2f %.3f ms over %d samples",
		arrivals, churnOpenRate, st.p50, st.tailPctile, st.tail, st.n)
	ct := chunkLat.summary()
	out.notef("open loop: chunk latency from intended time: p50 %.3f ms, tail p%.2f %.3f ms over %d samples", ct.p50, ct.tailPctile, ct.tail, ct.n)
	out.notef("closed loop: %d sessions (%d chunks) by %d players in %.2f s", cl.done, cl.chunks, o.nproc, cl.elapsed.Seconds())
	out.e2e["midstream_ape_p50"] = out.check.apeMedian()

	if o.traced {
		L := out.layers
		L["loadgen.dispatch_late_max_ms"] = float64(late.v.Load()) / 1e6
		L["runtime.alloc_kb_per_session"] = float64(cl.alloc) / 1024 / float64(cl.done)
		L["runtime.alloc_b_per_chunk"] = float64(cl.alloc) / float64(cl.chunks)
		httpLayers(out, sr.ts, false)
		engineLayers(out, sr.model, all)
		if err := trainLayers(out, sr.model.train, sr.model.cfg, sr.trains[len(sr.trains)-1]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Steady workload shape.
const (
	steadyReplicas  = 3
	steadyResident  = 96    // long-lived sessions started during set-up
	steadyOpenRate  = 150.0 // observe+predict round trips per second, open loop
	steadyOpenShare = 0.5
)

// runSteady: three replicas behind router.New, a binary v2 client, and a
// fixed population of resident sessions started during set-up. Each slice
// holds only per-chunk observe+predict: open loop, then closed loop.
func runSteady(o runOpts) (*outcome, error) {
	sr := newServingRun(o)
	out := sr.out
	var (
		resident []*served
		all      []*served
		chunkLat samples
		late     maxDur
		cl       closedLoop
		open     int64
	)
	prepare := func(t *tier, pool []*trace.Session, r int) error {
		order := newRand(o.seed).Perm(len(pool))
		resident = make([]*served, steadyResident)
		for i := range resident {
			resident[i] = &served{id: fmt.Sprintf("r%d-%d", r, i), round: r, src: pool[order[i%len(order)]]}
		}
		pl := &player{t: t, acct: &out.acct, check: out.check, ts: sr.ts}
		var wg sync.WaitGroup
		var failed atomic.Int64
		for w := 0; w < o.nproc; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(resident); i += o.nproc {
					if pl.start(resident[i]) != nil {
						failed.Add(1)
					}
				}
			}(w)
		}
		wg.Wait()
		if n := failed.Load(); n > 0 {
			return fmt.Errorf("%d resident session starts failed", n)
		}
		return nil
	}
	err := sr.rounds(tierSpec{replicas: steadyReplicas, binary: true, conns: o.nproc}, prepare, func(t *tier, r int, dur time.Duration) {
		pl := &player{t: t, acct: &out.acct, check: out.check, ts: sr.ts}
		sliceStart := time.Now()

		// Open loop: each resident session is due an observe+predict every
		// period, staggered so the tier sees steadyOpenRate round trips per
		// second. A session's round trips are issued in order by its own
		// goroutine; latency counts from the due time.
		period := time.Duration(float64(steadyResident) / steadyOpenRate * float64(time.Second))
		openDur := time.Duration(float64(dur) * steadyOpenShare)
		var events []event
		for j := time.Duration(0); ; j++ {
			first := period * j
			if first >= openDur {
				break
			}
			for i := range resident {
				if due := first + period*time.Duration(i)/steadyResident; due < openDur {
					events = append(events, event{due: due, session: i})
				}
			}
		}
		chans := make([]chan time.Time, len(resident))
		for i := range chans {
			// Buffered for every event of the session.
			chans[i] = make(chan time.Time, int(openDur/period)+1)
		}
		var wg sync.WaitGroup
		var n atomic.Int64
		for i, s := range resident {
			wg.Add(1)
			go func(s *served, ch chan time.Time) {
				defer wg.Done()
				for due := range ch {
					_ = pl.chunk(s)
					chunkLat.add(time.Since(due))
					n.Add(1)
				}
			}(s, chans[i])
		}
		late.observe(dispatch(time.Now().Add(10*time.Millisecond), events, chans))
		wg.Wait()
		open += n.Load()

		// Closed loop: nproc players, each cycling over its share of the
		// resident sessions.
		deadline := sliceStart.Add(dur)
		if min := time.Now().Add(dur / 4); deadline.Before(min) {
			deadline = min
		}
		cl.run(func() (int64, int64) {
			var done atomic.Int64
			var pwg sync.WaitGroup
			for p := 0; p < o.nproc; p++ {
				pwg.Add(1)
				go func(p int) {
					defer pwg.Done()
					var mine []*served
					for i := p; i < len(resident); i += o.nproc {
						mine = append(mine, resident[i])
					}
					var k int64
					for ; time.Now().Before(deadline); k++ {
						_ = pl.chunk(mine[int(k)%len(mine)])
					}
					done.Add(k)
				}(p)
			}
			pwg.Wait()
			return done.Load(), done.Load()
		})
		if o.traced {
			all = append(all, resident...)
		}
	})
	if err != nil {
		return nil, err
	}

	ct := chunkLat.summary()
	out.e2e["p50_ms"] = ct.p50
	cl.report(out)
	out.notef("open loop: %d round trips at %.0f/s over %d resident sessions, latency from intended time: p50 %.3f ms, tail p%.2f %.3f ms over %d samples",
		open, steadyOpenRate, steadyResident, ct.p50, ct.tailPctile, ct.tail, ct.n)
	out.notef("closed loop: %d round trips by %d players in %.2f s", cl.done, o.nproc, cl.elapsed.Seconds())
	out.e2e["midstream_ape_p50"] = out.check.apeMedian()

	if o.traced {
		L := out.layers
		L["loadgen.dispatch_late_max_ms"] = float64(late.v.Load()) / 1e6
		L["runtime.alloc_b_per_chunk"] = float64(cl.alloc) / float64(cl.done)
		httpLayers(out, sr.ts, true)
		engineLayers(out, sr.model, all)
		if err := trainLayers(out, sr.model.train, sr.model.cfg, sr.trains[len(sr.trains)-1]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// httpLayers derives the httpapi, wire and router per-layer metrics from
// the window's client, handler, listener and connection counts.
func httpLayers(out *outcome, t *traceSet, routed bool) {
	L := out.layers
	c := &t.calls
	L["httpapi.client.start_ms"] = c[routeStart].meanMs()
	L["httpapi.client.chunk_ms"] = c[routeChunk].meanMs()
	L["httpapi.client.log_ms"] = c[routeLog].meanMs()
	L["httpapi.handler.start_ms"] = t.replicaH[routeStart].meanMs()
	L["httpapi.handler.chunk_ms"] = t.replicaH[routeChunk].meanMs()
	L["httpapi.handler.log_ms"] = t.replicaH[routeLog].meanMs()
	front := &t.replicaH
	if routed {
		front = &t.routerH
	}
	L["httpapi.transport.chunk_ms"] = c[routeChunk].meanMs() - front[routeChunk].meanMs()
	chunks := float64(c[routeChunk].n.Load())
	if chunks > 0 {
		L["wire.front.bytes_per_chunk"] = float64(t.front.bytes.Load()) / chunks
	}
	if !routed {
		return
	}
	var ops, upstream int64
	for r := route(0); r < nRoutes; r++ {
		if r == routeProbe {
			continue
		}
		ops += t.routerH[r].n.Load()
		upstream += t.replicaH[r].n.Load()
	}
	L["router.handler.chunk_ms"] = t.routerH[routeChunk].meanMs()
	L["router.overhead.chunk_ms"] = t.routerH[routeChunk].meanMs() - t.replicaH[routeChunk].meanMs()
	if ops > 0 {
		L["router.upstream.dials_per_kop"] = 1000 * float64(t.upstream.accepts.Load()) / float64(ops)
		L["router.upstream.requests_per_op"] = float64(upstream) / float64(ops)
	}
	if chunks > 0 {
		L["router.upstream.bytes_per_chunk"] = float64(t.upstream.bytes.Load()) / chunks
	}
}

// replayLimit bounds the sessions the engine layer replays in a traced run
// (each start costs a full rebuffer forecast, twice).
const replayLimit = 150

// engineLayers replays the served session sequence on a second Service
// over the same model, calling the engine directly, and times
// EstimateRebuffer with each start's own model and arguments. It also times
// the HMM filter step over every served series.
func engineLayers(out *outcome, m *servingModel, all []*served) {
	L := out.layers
	spec := video.Default()
	svc := engine.NewServiceWithOptions(m.eng, m.cfg, spec, engine.ServiceOptions{})
	svc.SetLogf(func(string, ...any) {})
	svc.SetMetrics(obs.NewRegistry())

	seen := map[string]bool{}
	var repeats, hits, starts int
	for _, s := range all {
		if !s.started {
			continue
		}
		starts++
		key := fmt.Sprintf("%d|%s|%d", s.round, s.start.ClusterID, s.start.SuggestedInitialLevel)
		if seen[key] {
			repeats++
		}
		seen[key] = true
		if s.start.ClusterID != core.GlobalClusterID {
			hits++
		}
	}
	if starts > 0 {
		L["engine.forecast_repeat_ratio"] = float64(repeats) / float64(starts)
		L["engine.cluster_hit_ratio"] = float64(hits) / float64(starts)
	}

	var startT, forecastT, observeT, endT timeSum
	for i, s := range all {
		if i >= replayLimit {
			break
		}
		if !s.started {
			continue
		}
		id := "replay-" + s.id
		t0 := time.Now()
		r := svc.StartSession(id, s.src.Features, s.src.StartUnix)
		startT.add(time.Since(t0))
		model, _ := m.eng.ModelFor(&trace.Session{ID: id, StartUnix: s.src.StartUnix, Features: s.src.Features, Throughput: []float64{1}})
		t0 = time.Now()
		fc := engine.EstimateRebuffer(spec, model, r.InitialPredictionMbps, 30, 1)
		forecastT.add(time.Since(t0))
		if fc != r.RebufferEstimateSec {
			out.check.failf("%s: direct rebuffer forecast %v differs from the service's %v", id, fc, r.RebufferEstimateSec)
		}
		for k, w := range s.obs {
			t0 = time.Now()
			p, err := svc.ObserveAndPredict(id, w, 1)
			observeT.add(time.Since(t0))
			if err != nil || p != s.preds[k] {
				out.check.failf("%s: direct engine prediction %d = %v (%v), served %v", id, k, p, err, s.preds[k])
				break
			}
		}
		t0 = time.Now()
		svc.EndSession(engine.SessionLog{SessionID: id, Strategy: "CS2P"})
		endT.add(time.Since(t0))
	}
	L["engine.start_us"] = startT.meanMs() * 1000
	L["engine.rebuffer_forecast_ms"] = forecastT.meanMs()
	L["engine.observe_us"] = observeT.meanMs() * 1000
	L["engine.end_us"] = endT.meanMs() * 1000

	var steps int
	var stepT time.Duration
	for _, s := range all {
		if !s.started || len(s.obs) == 0 {
			continue
		}
		var hm *hmm.Model
		if sm, ok := m.store.Models[s.start.ClusterID]; ok {
			hm = sm.Model
		} else {
			hm = m.store.Global.Model
		}
		f := hmm.NewFilter(hm)
		t0 := time.Now()
		for _, w := range s.obs {
			f.Observe(w)
			f.PredictAhead(1)
		}
		stepT += time.Since(t0)
		steps += len(s.obs)
	}
	if steps > 0 {
		L["hmm.filter_step_ns"] = float64(stepT) / float64(steps)
	}
}

// trainLayers repeats the work of core.Train sequentially from outside —
// the cluster rule search, then one hmm.Train per cluster and the global
// fit — timing each layer, and reports the EM iterations the timed
// core.Train recorded in its metrics registry.
func trainLayers(out *outcome, d *trace.Dataset, cfg core.Config, st trainStats) error {
	L := out.layers
	ccfg := cfg.Cluster
	ccfg.Parallelism = 1
	t0 := time.Now()
	cl := cluster.New(ccfg, d)
	if err := cl.SelectCtx(context.Background()); err != nil {
		return fmt.Errorf("cluster rule search: %w", err)
	}
	selectS := time.Since(t0).Seconds()

	byCluster := map[string][][]float64{}
	for _, s := range d.Sessions {
		rule, id := cl.ClusterFor(s)
		if rule.IsGlobal() {
			continue
		}
		byCluster[id] = append(byCluster[id], s.Throughput)
	}
	ids := make([]string, 0, len(byCluster))
	for id, seqs := range byCluster {
		if len(seqs) >= cfg.MinClusterSessions {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	hcfg := cfg.HMM
	hcfg.Parallelism = 1
	var fitS float64
	fits := 0
	fit := func(seqs [][]float64) {
		t0 := time.Now()
		if _, err := hmm.Train(seqs, hcfg); err == nil {
			fits++
		}
		fitS += time.Since(t0).Seconds()
	}
	for _, id := range ids {
		fit(strideCap(byCluster[id], cfg.MaxClusterSessions))
	}
	var all [][]float64
	for _, s := range d.Sessions {
		all = append(all, s.Throughput)
	}
	fit(strideCap(all, cfg.GlobalSessions))

	L["cluster.select_s"] = selectS
	L["hmm.fit_s"] = fitS
	L["hmm.fits"] = float64(fits)
	L["hmm.em_iters"] = st.emIters
	L["core.parallel_speedup"] = (selectS + fitS) / st.wall.Seconds()
	return nil
}

// strideCap subsamples seqs to at most cap entries at an even stride, the
// cap core.Train applies per cluster.
func strideCap(seqs [][]float64, cap int) [][]float64 {
	if cap <= 0 || len(seqs) <= cap {
		return seqs
	}
	stride := float64(len(seqs)) / float64(cap)
	out := make([][]float64, 0, cap)
	for i := 0; i < cap; i++ {
		out = append(out, seqs[int(float64(i)*stride)])
	}
	return out
}
