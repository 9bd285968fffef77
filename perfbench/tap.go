package main

import (
	"context"
	"encoding/binary"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"speedkit/internal/cache"
	"speedkit/internal/cachesketch"
	"speedkit/internal/clock"
	"speedkit/internal/netsim"
	"speedkit/internal/proxy"
	"speedkit/internal/session"
	"speedkit/internal/tracectx"
)

// The tap is the benchmark's only view into the deployment. It wraps
// the public seams — the proxy.Transport of every device, the device
// and edge-upstream http.RoundTrippers, the edge and server
// http.Handlers — and nothing else. Untraced it only counts; traced it
// also records one span per layer boundary, linked by the W3C
// traceparent the transport already sends and the edge forwards.

// Transport call kinds (proxy.Transport methods).
const (
	callSketch = iota
	callPage
	callRevalidate
	callBlocks
	nCalls
)

var callNames = [nCalls]string{"sketch", "page", "revalidate", "blocks"}

// Edge outcomes, from the X-Edge-Cache response header.
const (
	edgeHit = iota
	edgeMiss
	edgeRevalidated
	edgeCoalesced
	edgeStale
	edgeBypass
	edgeOther
	nEdge
)

var edgeNames = [nEdge]string{"hit", "miss", "revalidated", "coalesced", "stale", "bypass", "other"}

func edgeOutcome(h string) int {
	for i, n := range edgeNames[:edgeOther] {
		if h == n {
			return i
		}
	}
	return edgeOther
}

// Server routes.
const (
	routePage = iota
	routeSketch
	routeBlocks
	routeWrite
	routePurge
	routeOther
	nRoutes
)

var routeNames = [nRoutes]string{"page", "sketch", "blocks", "write", "purge", "other"}

func routeOf(path string) int {
	switch path {
	case "/v1/page", "/page":
		return routePage
	case "/v1/sketch", "/sketch":
		return routeSketch
	case "/v1/blocks", "/blocks":
		return routeBlocks
	case "/v1/write", "/admin/write":
		return routeWrite
	case "/v1/purge", "/purge":
		return routePurge
	}
	return routeOther
}

// Span kinds, outermost first.
const (
	spanLoad = iota
	spanCall
	spanEdge
	spanUpstream
	spanServer
	nSpanKinds
)

// span is one timed layer boundary. Times are ns on the run clock.
type span struct {
	trace, id, parent uint64
	kind, sub         uint8
	start, end        int64
	// aux carries the purge fan-out time spent inside a write handler.
	aux int64
}

// counters are the tap's counts; every field is cumulative and read by
// snapshot at phase boundaries.
type counters struct {
	deviceBytes  atomic.Uint64
	edgeOutcomes [nEdge]atomic.Uint64 // /v1/page responses at the device
	upstream     [nRoutes]atomic.Uint64
	pollErrs     atomic.Uint64
	purgeErrs    atomic.Uint64
}

type tap struct {
	epoch   time.Time
	tracing bool // the run records spans (set before any traffic)
	or      *oracle
	c       counters

	// purgeSync accumulates time spent synchronously inside the OnPurge
	// listener, so a write handler's own time excludes its fan-out.
	purgeSync atomic.Int64

	nextID atomic.Uint64
	mu     sync.Mutex
	spans  []span
	purges []int64 // purge POST round trips, ns
}

func newTap(or *oracle, tracing bool) *tap {
	return &tap{epoch: clock.System.Now(), tracing: tracing, or: or}
}

// now is the run clock: monotonic ns since the tap was built.
func (t *tap) now() int64 { return int64(clock.Since(clock.System, t.epoch)) }

func (t *tap) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tap) recordPurge(d int64) {
	t.mu.Lock()
	t.purges = append(t.purges, d)
	t.mu.Unlock()
}

// --- trace identity ----------------------------------------------------

func (t *tap) newID() uint64 { return t.nextID.Add(1) }

func spanContext(trace, id uint64) tracectx.SpanContext {
	var sc tracectx.SpanContext
	binary.BigEndian.PutUint64(sc.TraceID[8:], trace)
	binary.BigEndian.PutUint64(sc.SpanID[:], id)
	// Sampled, so the server's own tracer joins the trace exactly as it
	// roots its own when no parent arrives: both do the same work.
	sc.Sampled = true
	return sc
}

func fromSpanContext(sc tracectx.SpanContext) (trace, id uint64) {
	return binary.BigEndian.Uint64(sc.TraceID[8:]), binary.BigEndian.Uint64(sc.SpanID[:])
}

func (t *tap) parseParent(h http.Header) (trace, parent uint64, ok bool) {
	sc, ok := tracectx.ParseTraceparent(h.Get(tracectx.Header))
	if !ok {
		return 0, 0, false
	}
	trace, parent = fromSpanContext(sc)
	return trace, parent, true
}

// beginLoad starts the root span of a traced page load.
func (t *tap) beginLoad(ctx context.Context, trace uint64) (context.Context, span) {
	s := span{trace: trace, id: t.newID(), kind: spanLoad, start: t.now()}
	return tracectx.ContextWithSpan(ctx, spanContext(trace, s.id)), s
}

// --- proxy.Transport decorator ----------------------------------------

// transport decorates a device's proxy.Transport: it keeps every
// returned page body for the oracle, which gets them after the load
// (flush), and, in traced loads, opens a child span whose ID the HTTP
// transport propagates. Each device has its own, used by one caller.
type transport struct {
	t       *tap
	inner   proxy.Transport
	pending []shellObs
}

// shellObs is one page body a transport call returned.
type shellObs struct {
	path    string
	version uint64
	body    []byte
}

// flush hands the page bodies of the last load to the oracle.
func (tr *transport) flush() {
	for _, o := range tr.pending {
		tr.t.or.observeShell(o.path, o.version, o.body)
	}
	clear(tr.pending)
	tr.pending = tr.pending[:0]
}

func (t *tap) transport(inner proxy.Transport) *transport {
	return &transport{t: t, inner: inner}
}

func (tr *transport) begin(ctx context.Context, kind int) (context.Context, span, bool) {
	sc, ok := tracectx.SpanFromContext(ctx)
	if !ok {
		return ctx, span{}, false
	}
	trace, parent := fromSpanContext(sc)
	s := span{trace: trace, id: tr.t.newID(), parent: parent, kind: spanCall, sub: uint8(kind), start: tr.t.now()}
	return tracectx.ContextWithSpan(ctx, spanContext(trace, s.id)), s, true
}

func (tr *transport) end(s span, traced bool) {
	if traced {
		s.end = tr.t.now()
		tr.t.record(s)
	}
}

func (tr *transport) FetchSketch(ctx context.Context, r netsim.Region) (*cachesketch.Snapshot, time.Duration, error) {
	ctx, s, traced := tr.begin(ctx, callSketch)
	sn, lat, err := tr.inner.FetchSketch(ctx, r)
	tr.end(s, traced)
	return sn, lat, err
}

func (tr *transport) Fetch(ctx context.Context, r netsim.Region, path string) (cache.Entry, time.Duration, proxy.Source, error) {
	ctx, s, traced := tr.begin(ctx, callPage)
	e, lat, src, err := tr.inner.Fetch(ctx, r, path)
	tr.end(s, traced)
	if err == nil {
		tr.pending = append(tr.pending, shellObs{path, e.Version, e.Body})
	}
	return e, lat, src, err
}

func (tr *transport) Revalidate(ctx context.Context, r netsim.Region, path string, known uint64) (proxy.RevalidationResult, error) {
	ctx, s, traced := tr.begin(ctx, callRevalidate)
	rr, err := tr.inner.Revalidate(ctx, r, path, known)
	tr.end(s, traced)
	if err == nil && !rr.NotModified {
		tr.pending = append(tr.pending, shellObs{path, rr.Entry.Version, rr.Entry.Body})
	}
	return rr, err
}

func (tr *transport) FetchBlocks(ctx context.Context, r netsim.Region, names []string, u *session.User) (map[string][]byte, time.Duration, error) {
	ctx, s, traced := tr.begin(ctx, callBlocks)
	out, lat, err := tr.inner.FetchBlocks(ctx, r, names, u)
	tr.end(s, traced)
	return out, lat, err
}

// --- device http.RoundTripper ------------------------------------------

// deviceRT sits between every device's httpclient and the shared
// connection pool. It counts bytes received, attributes every page
// response to the edge outcome named in X-Edge-Cache, and hands every
// /v1/blocks outcome to the oracle.
type deviceRT struct {
	t    *tap
	base http.RoundTripper
}

func (rt *deviceRT) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := rt.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	switch routeOf(req.URL.Path) {
	case routePage:
		rt.t.c.edgeOutcomes[edgeOutcome(resp.Header.Get("X-Edge-Cache"))].Add(1)
	case routeBlocks:
		rt.t.or.observeBlocks(resp.Header.Get("X-Edge-Cache"))
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, n: &rt.t.c.deviceBytes}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Uint64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(uint64(n))
	return n, err
}

// --- edge handler and its upstream RoundTripper ------------------------

type edgeSpanKey struct{}

type spanRef struct{ trace, id uint64 }

// edgeHandler wraps the edge's http.Handler. Traced requests get a span
// grouped by the X-Edge-Cache outcome the edge chose, and carry its ID
// in the request context down to the upstream RoundTripper.
func (t *tap) edgeHandler(h http.Handler) http.Handler {
	if !t.tracing {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		trace, parent, ok := t.parseParent(r.Header)
		if !ok {
			h.ServeHTTP(w, r)
			return
		}
		s := span{trace: trace, id: t.newID(), parent: parent, kind: spanEdge, start: t.now()}
		r = r.WithContext(context.WithValue(r.Context(), edgeSpanKey{}, spanRef{trace, s.id}))
		h.ServeHTTP(w, r)
		s.end = t.now()
		s.sub = uint8(edgeOutcome(w.Header().Get("X-Edge-Cache")))
		t.record(s)
	})
}

// upstreamRT wraps the edge's upstream client. It counts requests per
// route; inside a traced edge request it times the round trip up to
// the end of the response body and re-parents the forwarded
// traceparent onto its own span.
type upstreamRT struct {
	t    *tap
	base http.RoundTripper
}

func (rt *upstreamRT) RoundTrip(req *http.Request) (*http.Response, error) {
	rt.t.c.upstream[routeOf(req.URL.Path)].Add(1)
	ref, ok := req.Context().Value(edgeSpanKey{}).(spanRef)
	if !ok {
		return rt.base.RoundTrip(req)
	}
	s := span{trace: ref.trace, id: rt.t.newID(), parent: ref.id, kind: spanUpstream, start: rt.t.now()}
	req = req.Clone(req.Context())
	req.Header.Set(tracectx.Header, spanContext(ref.trace, s.id).Traceparent())
	resp, err := rt.base.RoundTrip(req)
	if err != nil {
		s.end = rt.t.now()
		rt.t.record(s)
		return nil, err
	}
	b := &spanBody{ReadCloser: resp.Body}
	b.finish = func() {
		s.end = rt.t.now()
		rt.t.record(s)
	}
	resp.Body = b
	return resp, nil
}

// spanBody ends its span at the first EOF, error or Close.
type spanBody struct {
	io.ReadCloser
	once   sync.Once
	finish func()
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		b.once.Do(b.finish)
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.once.Do(b.finish)
	return b.ReadCloser.Close()
}

// --- server handler ----------------------------------------------------

// serverHandler wraps the httpapi handler. Traced runs time every
// request by route; a write's span also records how much of it the
// purge fan-out took (writes are issued one at a time, so every purge
// notification during the handler belongs to it).
func (t *tap) serverHandler(h http.Handler) http.Handler {
	if !t.tracing {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		trace, parent, _ := t.parseParent(r.Header)
		s := span{trace: trace, id: t.newID(), parent: parent, kind: spanServer,
			sub: uint8(routeOf(r.URL.Path)), start: t.now()}
		fan := t.purgeSync.Load()
		h.ServeHTTP(w, r)
		s.end = t.now()
		s.aux = t.purgeSync.Load() - fan
		t.record(s)
	})
}
