package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"speedkit/internal/cdn"
	"speedkit/internal/clock"
	"speedkit/internal/core"
	"speedkit/internal/durable"
	"speedkit/internal/edge"
	"speedkit/internal/proxy"
)

// phase collects the outcomes of one measured phase.
type phase struct {
	name       string
	start, end int64

	mu        sync.Mutex
	lat       []sample // successful timed ops
	latTraced []sample // the traced subset (traced runs)
	attempted atomic.Int64
	failed    atomic.Int64
	firstErr  string
	wg        sync.WaitGroup

	inflight   atomic.Int64
	lateMax    int64 // generator lateness: handoff time minus intended time
	backlogMax int64 // most ops dispatched and not yet complete

	// recordFrom is the run-clock instant from which ops are timed; ops
	// due earlier belong to the ramp and count only as attempted/failed.
	recordFrom atomic.Int64
	timed      atomic.Int64 // ops attempted from recordFrom on

	// completions, when set, counts successful ops per throughputWindow
	// of completion time instead of keeping their samples.
	completions []int64
}

func (p *phase) dispatch(due, now int64) {
	p.attempted.Add(1)
	p.wg.Add(1)
	if due < p.recordFrom.Load() {
		p.inflight.Add(1)
		return
	}
	p.timed.Add(1)
	if late := now - due; late > p.lateMax {
		p.lateMax = late
	}
	if b := p.inflight.Add(1); b > p.backlogMax {
		p.backlogMax = b
	}
}

func (p *phase) done(due, lat int64, err error, traced bool) {
	p.mu.Lock()
	if err != nil {
		p.failed.Add(1)
		if p.firstErr == "" {
			p.firstErr = err.Error()
		}
	} else if due < p.recordFrom.Load() {
		// ramp: run, checked, not timed
	} else if p.completions != nil {
		if w := int((due + lat - p.start) / int64(throughputWindow)); w < len(p.completions) {
			p.completions[w]++
		}
	} else if traced {
		p.latTraced = append(p.latTraced, sample{due, lat})
	} else {
		p.lat = append(p.lat, sample{due, lat})
	}
	p.mu.Unlock()
	p.inflight.Add(-1)
	p.wg.Done()
}

func (p *phase) succeeded() int64 { return p.attempted.Load() - p.failed.Load() }

// sample is one timed op: its intended start and its latency, in ns.
type sample struct{ due, lat int64 }

// chunkSamples is the sample count per chunk for chunked quantiles: a
// p99 over 200 samples lies between the second and third largest.
// Chunks are short (0.03–0.2 s of timed loads, 1 s of writes) so that a
// stall of the VM, which an idle thread on the 2-vCPU target sees for
// 5–10 ms every few seconds, lands in few of them.
const chunkSamples = 200

// chunkedQuantile splits the samples, in order of intended start, into
// consecutive chunks of about chunkSamples, takes the q-quantile of each
// and returns their median. A stall (of the host, a GC cycle, a
// snapshot) then moves the chunks it falls in, not the reported figure;
// a slowdown that touches most chunks moves it.
func chunkedQuantile(ss []sample, q float64) float64 {
	s := append([]sample(nil), ss...)
	sort.Slice(s, func(i, j int) bool { return s[i].due < s[j].due })
	k := max(1, len(s)/chunkSamples)
	per := make([]float64, 0, k)
	for c := 0; c < k; c++ {
		lats := make([]int64, 0, len(s)/k+1)
		for _, x := range s[c*len(s)/k : (c+1)*len(s)/k] {
			lats = append(lats, x.lat)
		}
		per = append(per, quantile(lats, q))
	}
	return medianF(per)
}

// throughputWindow is the window the closed loop's completion rate is
// taken over; the reported rate is the median window's.
const throughputWindow = 500 * time.Millisecond

// windowedRate returns the median over the phase's full windows of
// completed ops per second.
func (p *phase) windowedRate() float64 {
	n := min(int((p.end-p.start)/int64(throughputWindow)), len(p.completions))
	if n == 0 {
		return float64(p.succeeded()) / (float64(p.end-p.start) / 1e9)
	}
	rates := make([]float64, n)
	for i := range rates {
		rates[i] = float64(p.completions[i]) / throughputWindow.Seconds()
	}
	return medianF(rates)
}

// slot is one logical device position. Its goroutine is the only caller
// of its device, so every device is driven by one caller at a time.
type slot struct {
	dev     *device
	jobs    chan *job
	retired proxy.Stats // stats of devices whose sessions ended
}

// runner drives a deployment with the workload's generators.
type runner struct {
	cfg   *runConfig
	d     *deployment
	t     *tap
	gen   *generator
	slots []*slot
	wg    sync.WaitGroup
}

func newRunner(cfg *runConfig, d *deployment) *runner {
	r := &runner{cfg: cfg, d: d, t: d.tap, gen: newGenerator(cfg.w, cfg.products, len(d.users), cfg.seed)}
	r.slots = make([]*slot, cfg.w.slotCount())
	for i := range r.slots {
		sl := &slot{jobs: make(chan *job, 64)}
		if i < len(d.fleet) {
			sl.dev = d.fleet[i]
		}
		r.slots[i] = sl
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			for j := range sl.jobs {
				r.exec(sl, j)
			}
		}()
	}
	return r
}

func (r *runner) stop() {
	for _, sl := range r.slots {
		close(sl.jobs)
	}
	r.wg.Wait()
}

func (r *runner) exec(sl *slot, j *job) {
	if j.fresh {
		if sl.dev != nil {
			sl.retired = addProxyStats(sl.retired, sl.dev.p.Stats())
		}
		sl.dev = r.d.newDevice(j.user)
	}
	ctx := context.Background()
	var root span
	if j.traced {
		ctx, root = r.t.beginLoad(ctx, j.seq)
	}
	end, err := sl.dev.load(ctx, r.t, j.path)
	if j.traced {
		root.end = end
		r.t.record(root)
	}
	j.ph.done(j.due, end-j.due, err, j.traced)
	if j.release != nil {
		<-j.release
	}
}

// waitUntil blocks until the run-clock instant due (or returns at once
// if it has passed). It sleeps in nanosleep(2) rather than on a Go
// timer: an idle Go runtime wakes timers up to a millisecond late, which
// would put the generator's lateness, not the program's, into every
// sub-millisecond load. Callers hold a precise-timer thread (see
// preciseTimer).
func (r *runner) waitUntil(due int64) {
	for {
		wait := due - r.t.now()
		if wait <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(wait)
		_ = syscall.Nanosleep(&ts, nil)
	}
}

// preciseTimer pins the calling goroutine to its thread and shrinks
// that thread's timer slack (PR_SET_TIMERSLACK) to 1 µs, so nanosleep
// wakes close to the requested instant. Call the returned func when
// done.
func preciseTimer() (release func()) {
	runtime.LockOSThread()
	const prSetTimerSlack = 29
	_, _, _ = syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 1000, 0)
	return runtime.UnlockOSThread
}

// openLoop issues loads at a fixed rate for ramp+dur, each timed from
// its intended start, whatever the system's state. Loads due in the
// ramp run and are checked but not timed.
func (r *runner) openLoop(ph *phase, rate float64, ramp, dur time.Duration, traceSlices bool) {
	defer preciseTimer()()
	interval := float64(time.Second) / rate
	n := int((ramp + dur).Seconds() * rate)
	ph.start = r.t.now()
	ph.recordFrom.Store(ph.start + int64(ramp))
	for k := 0; k < n; k++ {
		due := ph.start + int64(float64(k)*interval)
		r.waitUntil(due)
		j := r.gen.next()
		j.due, j.ph = due, ph
		j.traced = traceSlices && ((due-ph.start)/int64(traceSlice))%2 == 1
		ph.dispatch(due, r.t.now())
		r.slots[j.slot].jobs <- j
	}
	ph.wg.Wait()
	ph.end = r.t.now()
}

// closedLoop keeps nproc loads in flight back to back for dur.
func (r *runner) closedLoop(ph *phase, dur time.Duration) {
	tokens := make(chan struct{}, nproc)
	ph.completions = make([]int64, dur/throughputWindow+1)
	ph.start = r.t.now()
	deadline := ph.start + int64(dur)
	for r.t.now() < deadline {
		tokens <- struct{}{}
		j := r.gen.next()
		j.due, j.ph, j.release = r.t.now(), ph, tokens
		ph.dispatch(j.due, j.due)
		r.slots[j.slot].jobs <- j
	}
	ph.wg.Wait()
	ph.end = r.t.now()
}

// writer issues writes at a fixed rate from one caller, so writes to a
// path are acknowledged in order, until the deadline or stop. Each is
// timed from its intended start.
func (r *runner) writer(ph *phase, rate float64, deadline int64, stop <-chan struct{}) {
	defer preciseTimer()()
	wg := newWriteGen(r.cfg.products, r.cfg.seed)
	interval := float64(time.Second) / rate
	ph.start = r.t.now()
	for k := 0; ; k++ {
		due := ph.start + int64(float64(k)*interval)
		if due >= deadline {
			break
		}
		r.waitUntil(due)
		select {
		case <-stop:
			ph.end = r.t.now()
			return
		default:
		}
		path, price := wg.next()
		ph.dispatch(due, r.t.now())
		version, err := r.write(path, price)
		end := r.t.now()
		if err == nil {
			r.t.or.observeAck(path, version, end)
		}
		ph.done(due, end-due, err, false)
	}
	ph.end = r.t.now()
}

// write POSTs one catalog write to the server and returns the version
// its reply acknowledges ("ok: <path> now v<N>, ...").
func (r *runner) write(path string, price float64) (uint64, error) {
	id := strings.TrimPrefix(path, "/product/")
	u := r.d.serverURL + "/v1/write?product=" + url.QueryEscape(id) + "&price=" + strconv.FormatFloat(price, 'f', 2, 64)
	resp, err := r.d.writeClient.Post(u, "", nil)
	if err != nil {
		return 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("write %s: %s: %s", path, resp.Status, strings.TrimSpace(string(body)))
	}
	_, rest, ok := strings.Cut(string(body), " now v")
	if !ok {
		return 0, fmt.Errorf("write %s: no version in reply %q", path, body)
	}
	digits := rest
	if i := strings.IndexFunc(rest, func(c rune) bool { return c < '0' || c > '9' }); i >= 0 {
		digits = rest[:i]
	}
	v, err := strconv.ParseUint(digits, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("write %s: bad version in reply %q", path, body)
	}
	return v, nil
}

// --- counter snapshots ---------------------------------------------------

// snapshot reads every counter at a phase boundary, when no load runs.
type snapshot struct {
	proxy  proxy.Stats
	edge   edge.Stats
	core   core.Stats
	cdn    cdn.Stats
	dur    durable.Stats
	bytes  uint64
	edgeHd [nEdge]uint64
	up     [nRoutes]uint64
	alloc  uint64
	gcs    uint32
	cpu    time.Duration

	sketchBytes, tracked int
}

func (r *runner) snapshot() snapshot {
	s := snapshot{
		edge: r.d.edge.Stats(),
		core: r.d.svc.Stats(),
		cdn:  r.d.svc.CDN().Stats(),
		dur:  r.d.store.Stats(),

		sketchBytes: r.d.svc.SketchServer().SketchBytes(),
		tracked:     r.d.svc.SketchServer().Stats().Tracked,
	}
	for _, sl := range r.slots {
		s.proxy = addProxyStats(s.proxy, sl.retired)
		if sl.dev != nil {
			s.proxy = addProxyStats(s.proxy, sl.dev.p.Stats())
		}
	}
	c := &r.t.c
	for i := range s.edgeHd {
		s.edgeHd[i] = c.edgeOutcomes[i].Load()
	}
	for i := range s.up {
		s.up[i] = c.upstream[i].Load()
	}
	s.bytes = c.deviceBytes.Load()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.alloc, s.gcs = ms.TotalAlloc, ms.NumGC
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return s
}

func addProxyStats(a, b proxy.Stats) proxy.Stats {
	a.Loads += b.Loads
	a.DeviceHits += b.DeviceHits
	a.CDNHits += b.CDNHits
	a.OriginFetches += b.OriginFetches
	a.SketchRefreshes += b.SketchRefreshes
	a.Revalidations += b.Revalidations
	a.NotModified += b.NotModified
	a.OfflineServes += b.OfflineServes
	a.BlocksLocal += b.BlocksLocal
	a.BlocksOrigin += b.BlocksOrigin
	a.Prefetches += b.Prefetches
	a.Retries += b.Retries
	a.Degraded += b.Degraded
	return a
}

// heapSampler tracks the peak of the live heap — the bytes the last GC
// cycle marked reachable — while it runs. Unlike the in-use heap, that
// leaves out garbage not yet collected, whose amount depends on when GC
// cycles happen to fall (allocation shows in runtime.alloc_kb_per_op).
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		for {
			h.read()
			select {
			case <-h.stop:
				return
			default:
			}
			clock.Sleep(clock.System, 5*time.Millisecond)
		}
	}()
	return h
}

func (h *heapSampler) read() {
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(sample)
	h.peak = max(h.peak, sample[0].Value.Uint64())
}

// finish stops the sampler, then runs a GC cycle so the heap as the run
// left it is marked and counted too.
func (h *heapSampler) finish() uint64 {
	close(h.stop)
	<-h.done
	runtime.GC()
	h.read()
	return h.peak
}
