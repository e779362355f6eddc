package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"syscall"
	"time"

	"cs2p/internal/core"
	"cs2p/internal/engine"
	"cs2p/internal/httpapi"
	"cs2p/internal/obs"
	"cs2p/internal/router"
	"cs2p/internal/trace"
	"cs2p/internal/tracegen"
	"cs2p/internal/video"
)

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// totalAlloc is the cumulative heap bytes allocated by the process.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// liveHeapMB forces a collection and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// trainStats describes one core.Train call.
type trainStats struct {
	wall, cpu  time.Duration
	allocBytes uint64
	// emIters is the total Baum-Welch iterations over every fit, read
	// from the training metrics registry core.Train fills.
	emIters float64
}

// trainTimed trains with core.DefaultConfig (the paper's 6-state HMM) at
// the given parallelism and measures the call. The returned config is the
// one a server would be built with.
func trainTimed(d *trace.Dataset, par int) (*core.Engine, core.Config, trainStats, error) {
	cfg := core.DefaultConfig()
	cfg.Parallelism = par
	reg := obs.NewRegistry()
	cfg.Metrics = reg
	alloc0, cpu0, t0 := totalAlloc(), cpuTime(), time.Now()
	eng, err := core.Train(d, cfg)
	st := trainStats{wall: time.Since(t0), cpu: cpuTime() - cpu0}
	st.allocBytes = totalAlloc() - alloc0
	if err != nil {
		return nil, cfg, st, fmt.Errorf("training: %w", err)
	}
	st.emIters = reg.Histogram("cs2p_train_em_iterations", "", nil, nil).Sum()
	cfg.Metrics = nil
	return eng, cfg, st, nil
}

// servingPopulation is the fixed trace both serving workloads train on and
// draw sessions from: tracegen's default population over two days, with
// day 1 for training and day 2 as the pool of served sessions. It does not
// depend on the workload seed, so training cost and model quality are the
// same in every run; the seed picks which pool sessions are served, in
// which order and how long.
func servingPopulation() (train, pool *trace.Dataset) {
	cfg := tracegen.DefaultConfig()
	cfg.Sessions = servingTraceSessions
	d, _ := tracegen.Generate(cfg)
	return d.SplitByTime(time.Unix(cfg.StartUnix+86400, 0))
}

// servingTraceSessions sizes the serving trace: about 1000 training
// sessions, which core.Train fits in well over a second.
const servingTraceSessions = 2000

// tierSpec shapes a serving tier.
type tierSpec struct {
	replicas int  // 1 = one direct replica; more = that many behind router.New
	binary   bool // per-chunk round trips over /v2
	conns    int  // front-door connections
}

// tier is a running in-process serving tier plus its front-door client.
// The benchmark owns every listener and handler, so a traced tier can wrap
// each of them.
type tier struct {
	url       string
	client    *httpapi.Client
	transport *http.Transport
	servers   []*http.Server
	stopProbe context.CancelFunc
	probeDone sync.WaitGroup
}

// servingModel is a trained engine with what the tier and checks need.
type servingModel struct {
	train *trace.Dataset
	eng   *core.Engine
	cfg   core.Config
	store *core.ModelStore
	stats trainStats
}

func trainServing(train *trace.Dataset, par int) (*servingModel, error) {
	eng, cfg, st, err := trainTimed(train, par)
	if err != nil {
		return nil, err
	}
	return &servingModel{train: train, eng: eng, cfg: cfg, store: eng.Export(train), stats: st}, nil
}

// serve starts an http.Server for h on a fresh loopback listener, which
// counts into c when ts is non-nil.
func (t *tier) serve(h http.Handler, ts *traceSet, c *netCount) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("listening: %w", err)
	}
	url := "http://" + ln.Addr().String()
	if ts != nil {
		ln = countingListener{Listener: ln, ts: ts, c: c}
	}
	hs := &http.Server{Handler: h}
	t.servers = append(t.servers, hs)
	go func() { _ = hs.Serve(ln) }()
	return url, nil
}

// bootTier starts the replicas, configured as cs2p-server configures its
// own (a metrics registry attached to service and server, /v2 enabled),
// and, for more than one replica, a router built with router.New over
// them, probed and health-checked as cs2p-router runs it. With a non-nil
// traceSet every listener and handler is wrapped in its instruments.
func bootTier(m *servingModel, spec tierSpec, ts *traceSet) (*tier, error) {
	t := &tier{}
	ok := false
	defer func() {
		if !ok {
			t.close()
		}
	}()
	var urls []string
	for i := 0; i < spec.replicas; i++ {
		reg := obs.NewRegistry()
		obs.RegisterRuntimeMetrics(reg)
		svc := engine.NewServiceWithOptions(m.eng, m.cfg, video.Default(), engine.ServiceOptions{})
		svc.SetLogf(func(string, ...any) {})
		svc.SetMetrics(reg)
		svc.SetPromotionPolicy(&engine.PromotionPolicy{Tolerance: 0.1})
		srv := httpapi.NewServer(svc, func(e *core.Engine) *core.ModelStore { return e.Export(m.train) })
		srv.SetLogf(func(string, ...any) {})
		srv.SetMetrics(reg)
		srv.SetWireEnabled(true)
		srv.SetConfig(httpapi.DefaultServerConfig())
		h := srv.Handler()
		var c *netCount
		if ts != nil {
			h = timedHandler(h, ts, &ts.replicaH)
			c = &ts.upstream
			if spec.replicas == 1 {
				c = &ts.front
			}
		}
		url, err := t.serve(h, ts, c)
		if err != nil {
			return nil, err
		}
		urls = append(urls, url)
	}
	t.url = urls[0]
	if spec.replicas > 1 {
		reg := obs.NewRegistry()
		obs.RegisterRuntimeMetrics(reg)
		rt, err := router.New(router.Config{Replicas: urls, Metrics: reg})
		if err != nil {
			return nil, fmt.Errorf("building router: %w", err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		rt.ProbeAll(ctx)
		cancel()
		pctx, stop := context.WithCancel(context.Background())
		t.stopProbe = stop
		t.probeDone.Add(1)
		go func() {
			defer t.probeDone.Done()
			rt.RunHealthChecker(pctx)
		}()
		h := rt.Handler()
		var c *netCount
		if ts != nil {
			h = timedHandler(h, ts, &ts.routerH)
			c = &ts.front
		}
		if t.url, err = t.serve(h, ts, c); err != nil {
			return nil, err
		}
	}
	t.transport = &http.Transport{
		MaxConnsPerHost:     spec.conns,
		MaxIdleConnsPerHost: spec.conns,
		IdleConnTimeout:     time.Minute,
	}
	t.client = httpapi.NewClientWith(t.url, &http.Client{Timeout: 30 * time.Second, Transport: t.transport})
	t.client.SetWireBinary(spec.binary)
	ok = true
	return t, nil
}

// close stops the tier (front first) and waits for the health checker.
func (t *tier) close() {
	if t.stopProbe != nil {
		t.stopProbe()
		t.probeDone.Wait()
	}
	for i := len(t.servers) - 1; i >= 0; i-- {
		_ = t.servers[i].Close()
	}
	if t.transport != nil {
		t.transport.CloseIdleConnections()
	}
	// The router's upstream clients use the default transport.
	if tr, ok := http.DefaultTransport.(*http.Transport); ok {
		tr.CloseIdleConnections()
	}
}
