package main

import (
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"time"
)

// The traced run measures each layer from outside it: listeners the
// benchmark owns count connections and bytes, handler wrappers time each
// request by route, and the players time each client call. None of
// these wrappers is installed in an untraced run.

// route classifies a request path into the operation kinds the benchmark
// reports.
type route int

const (
	routeStart route = iota
	routeChunk
	routeLog
	routeProbe
	routeOther
	nRoutes
)

func classify(path string) route {
	switch {
	case path == "/v1/session/start":
		return routeStart
	case path == "/v1/predict" || strings.HasPrefix(path, "/v2/"):
		return routeChunk
	case path == "/v1/log":
		return routeLog
	case path == "/v1/healthz":
		return routeProbe
	}
	return routeOther
}

// timeSum accumulates a count and a total duration; safe for concurrent
// use.
type timeSum struct {
	n  atomic.Int64
	ns atomic.Int64
}

func (t *timeSum) add(d time.Duration) {
	t.n.Add(1)
	t.ns.Add(int64(d))
}

// meanMs is the mean duration in milliseconds (0 with no samples).
func (t *timeSum) meanMs() float64 {
	n := t.n.Load()
	if n == 0 {
		return 0
	}
	return float64(t.ns.Load()) / float64(n) / 1e6
}

// routeTimes is one timeSum per route.
type routeTimes [nRoutes]timeSum

// traceSet holds a traced run's instruments. They are shared by every
// round's tier and record only while on is set, which is during the
// measured slices and never during set-up. A nil traceSet records nothing.
type traceSet struct {
	on              atomic.Bool
	front, upstream netCount
	replicaH        routeTimes // replica handlers
	routerH         routeTimes // the router's handler
	calls           routeTimes // front-door client calls
}

func (t *traceSet) enable(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

func (t *traceSet) recording() bool { return t != nil && t.on.Load() }

// timedHandler times every request h serves while ts records, by route.
func timedHandler(h http.Handler, ts *traceSet, rt *routeTimes) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		if ts.recording() {
			rt[classify(r.URL.Path)].add(time.Since(start))
		}
	})
}

// netCount counts accepted connections and the bytes read and written on
// them while its traceSet records.
type netCount struct {
	accepts atomic.Int64
	bytes   atomic.Int64
}

type countingListener struct {
	net.Listener
	ts *traceSet
	c  *netCount
}

func (l countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	if l.ts.recording() {
		l.c.accepts.Add(1)
	}
	return countingConn{Conn: conn, ts: l.ts, c: l.c}, nil
}

type countingConn struct {
	net.Conn
	ts *traceSet
	c  *netCount
}

func (cc countingConn) Read(p []byte) (int, error) {
	n, err := cc.Conn.Read(p)
	if cc.ts.recording() {
		cc.c.bytes.Add(int64(n))
	}
	return n, err
}

func (cc countingConn) Write(p []byte) (int, error) {
	n, err := cc.Conn.Write(p)
	if cc.ts.recording() {
		cc.c.bytes.Add(int64(n))
	}
	return n, err
}
