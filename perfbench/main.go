// Command perfbench is the end-to-end page-load benchmark: a fleet of
// device proxies → the edge cache → speedkit-server, joined only by
// loopback sockets, driven open-loop at a fixed rate and checked by an
// oracle on every run. See README.md for the workloads, the metrics and
// the program defects the benchmark documents.
//
//	perfbench --workload returning --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}; --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer ones.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"speedkit/internal/clock"
	"speedkit/internal/session"
)

// nproc sizes the load for the two-core machine the benchmark targets.
const nproc = 2

const (
	// delta is the staleness bound devices enforce: short enough that
	// every device refreshes its sketch several times per run.
	delta = time.Second
	// pollRatio keeps the edge's sketch poll at the ratio the binaries'
	// defaults ship (10 s poll against a 60 s Δ).
	pollRatio = 6
	// sloLimit is the load latency limit load_slo_ratio counts against.
	sloLimit = 5 * time.Millisecond
	products = 1000
	nUsers   = 1000
	setups   = 5
)

type runConfig struct {
	w        workloadSpec
	seed     int64
	seconds  int
	trace    bool
	delta    time.Duration
	poll     time.Duration
	products int
	workDir  string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "returning | first-visit | flash-sale")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 records spans and reports per-layer metrics")
	workDir := fs.String("work-dir", ".bench_build", "scratch directory for data dirs and span dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	if err := checkOracleDetects(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), nproc))
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	cfg := &runConfig{
		w: w, seed: *seed, seconds: *seconds, trace: *trace == 1,
		delta: delta, poll: delta / pollRatio, products: products,
		workDir: *workDir,
	}
	res, err := benchmark(cfg, out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(out, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func benchmark(cfg *runConfig, out io.Writer) (*result, error) {
	paths := sitePaths(cfg.products)
	warm := warmPages(cfg.products, cfg.w.devices, cfg.seed)
	users := session.Population(cfg.seed, nUsers)
	or := newOracle(cfg.delta, users)
	t := newTap(or, cfg.trace)

	// Set up several times and report the median; only the last
	// deployment is measured. A traced run sets up once.
	n := setups
	if cfg.trace {
		n = 1
	}
	var setupS []float64
	var d *deployment
	for i := 0; i < n; i++ {
		if d != nil {
			d.close()
		}
		sw := clock.NewStopwatch(clock.System)
		var err error
		//lint:ignore piiflow a device proxy owns its user by design; Load hands the device tracer only the path
		if d, err = setup(cfg, users, t, paths, warm, i); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, sw.Elapsed().Seconds())
	}
	runtime.GC()

	r := newRunner(cfg, d)
	total := time.Duration(cfg.seconds) * time.Second
	openDur, closedDur, checkDur := total*3/5, total/5, total/5
	if cfg.w.writeRate > 0 {
		openDur, checkDur = total*4/5, 0
	}

	heap := startHeapSampler()
	open, closed := &phase{name: "open-loop"}, &phase{name: "closed-loop"}
	check, writes := &phase{name: "checked"}, &phase{name: "writes"}
	stopWrites, writesDone := make(chan struct{}), make(chan struct{})
	s0 := r.snapshot()
	if cfg.w.writeRate > 0 {
		writes.recordFrom.Store(t.now() + int64(cfg.w.ramp))
		go func() {
			defer close(writesDone)
			r.writer(writes, cfg.w.writeRate, math.MaxInt64, stopWrites)
		}()
	}
	r.openLoop(open, cfg.w.rate, cfg.w.ramp, openDur, cfg.trace)
	s1 := r.snapshot()
	w1 := writes.attempted.Load()
	r.closedLoop(closed, closedDur)
	s2 := r.snapshot()
	w2 := writes.attempted.Load()
	ws0 := s0
	if cfg.w.writeRate > 0 {
		close(stopWrites)
		<-writesDone
	} else {
		// The checked phase: writes at a fixed rate while loads keep
		// running. The writes are timed; the loads are not (the whole
		// phase counts as ramp), but the oracle holds every one of them to
		// Δ against the acknowledged writes.
		ws0 = s2
		go func() {
			defer close(writesDone)
			r.writer(writes, checkedWriteRate, t.now()+int64(checkDur), nil)
		}()
		r.openLoop(check, min(cfg.w.rate, checkedLoadRate), checkDur, 0, false)
		<-writesDone
	}
	r.stop()
	d.purging.Wait()
	ws1 := r.snapshot()
	peak := heap.finish()
	v := or.verdict()
	d.close()

	rep := &report{cfg: cfg, out: out, t: t, v: v, open: open, closed: closed, check: check, writes: writes,
		setupS: setupS, peakHeap: peak, s0: s0, s1: s1, s2: s2, ws0: ws0, ws1: ws1,
		closedOps: float64(closed.attempted.Load() + w2 - w1)}
	if cfg.trace {
		if err := dumpSpans(cfg, t.spans); err != nil {
			return nil, err
		}
	}
	return rep.result(), nil
}

// dumpSpans writes the traced run's spans, held in memory until now, as
// CSV: trace,id,parent,kind,sub,start_ns,end_ns,aux_ns.
func dumpSpans(cfg *runConfig, spans []span) error {
	f, err := os.Create(filepath.Join(cfg.workDir, "spans-"+cfg.w.name+".csv"))
	if err != nil {
		return err
	}
	kinds := [nSpanKinds]string{"load", "call", "edge", "upstream", "server"}
	fmt.Fprintln(f, "trace,id,parent,kind,sub,start_ns,end_ns,aux_ns")
	for _, s := range spans {
		sub := ""
		switch s.kind {
		case spanCall:
			sub = callNames[s.sub]
		case spanEdge:
			sub = edgeNames[s.sub]
		case spanServer:
			sub = routeNames[s.sub]
		}
		fmt.Fprintf(f, "%d,%d,%d,%s,%s,%d,%d,%d\n", s.trace, s.id, s.parent, kinds[s.kind], sub, s.start, s.end, s.aux)
	}
	return f.Close()
}

// report turns one run's phases, snapshots and spans into the printed
// breakdown and the result line.
type report struct {
	cfg                  *runConfig
	out                  io.Writer
	t                    *tap
	v                    verdict
	open, closed, check  *phase
	writes               *phase
	setupS               []float64
	peakHeap             uint64
	s0, s1, s2, ws0, ws1 snapshot
	closedOps            float64
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (rp *report) result() *result {
	e2e := rp.endToEnd()
	layers := rp.perLayer()
	rp.print(e2e, layers)
	res := &result{
		Correct:   rp.v.ok(),
		Attempted: rp.open.attempted.Load() + rp.closed.attempted.Load() + rp.check.attempted.Load() + rp.writes.attempted.Load(),
		Failed:    rp.open.failed.Load() + rp.closed.failed.Load() + rp.check.failed.Load() + rp.writes.failed.Load(),
		Metrics:   e2e,
	}
	if rp.cfg.trace {
		res.Metrics = layers
	}
	return res
}

func (rp *report) endToEnd() map[string]metric {
	lat := rp.open.lat
	within := 0
	for _, x := range append(lat, rp.open.latTraced...) {
		if x.lat <= int64(sloLimit) {
			within++
		}
	}
	return map[string]metric{
		"setup_s":               {medianF(rp.setupS), "s"},
		"load_p50_ms":           {chunkedQuantile(lat, 0.5) / 1e6, "ms"},
		"load_p99_ms":           {chunkedQuantile(lat, 0.99) / 1e6, "ms"},
		"load_slo_ratio":        {ratio(float64(within), float64(rp.open.timed.Load())), "ratio"},
		"saturated_loads_per_s": {rp.closed.windowedRate(), "1/s"},
		"peak_heap_mb":          {float64(rp.peakHeap) / (1 << 20), "MB"},
	}
}

func (rp *report) perLayer() map[string]metric {
	m := map[string]metric{}
	us := func(name string, ns float64) { m[name] = metric{ns / 1e3, "us"} }
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	// Counts over the open loop.
	a, b := rp.s0, rp.s1
	loads := float64(b.proxy.Loads - a.proxy.Loads)
	put("proxy.device_hit_ratio", ratio(float64(b.proxy.DeviceHits-a.proxy.DeviceHits), loads), "ratio")
	reval := float64(b.proxy.Revalidations - a.proxy.Revalidations)
	put("proxy.revalidate_ratio", ratio(reval, loads), "ratio")
	put("proxy.not_modified_ratio", ratio(float64(b.proxy.NotModified-a.proxy.NotModified), reval), "ratio")
	put("proxy.sketch_refreshes_per_load", ratio(float64(b.proxy.SketchRefreshes-a.proxy.SketchRefreshes), loads), "1/load")
	put("proxy.retries", float64(b.proxy.Retries-a.proxy.Retries), "count")
	put("proxy.degraded", float64(b.proxy.Degraded-a.proxy.Degraded), "count")
	put("proxy.cdn_hits", float64(b.proxy.CDNHits-a.proxy.CDNHits), "count")
	put("httpclient.bytes_per_load", ratio(float64(b.bytes-a.bytes), loads), "B/load")
	var pageResp uint64
	for i := range b.edgeHd {
		pageResp += b.edgeHd[i] - a.edgeHd[i]
	}
	put("edge.hit_ratio", ratio(float64(b.edgeHd[edgeHit]-a.edgeHd[edgeHit]), float64(pageResp)), "ratio")
	put("edge.header_hits", float64(b.edgeHd[edgeHit]-a.edgeHd[edgeHit]), "count")
	put("edge.upstream_per_page", ratio(float64(b.up[routePage]-a.up[routePage]), float64(pageResp)), "ratio")
	put("edge.coalesced_waiters", float64(b.edge.CoalescedWaiters-a.edge.CoalescedWaiters), "count")
	put("edge.served_stale", float64(b.edge.ServedStale-a.edge.ServedStale), "count")
	put("edge.upstream_errors", float64(b.edge.UpstreamErrors-a.edge.UpstreamErrors), "count")
	put("core.origin_renders_per_load", ratio(float64(b.core.OriginRenders-a.core.OriginRenders), loads), "1/load")
	cdnLookups := float64(b.cdn.Hits - a.cdn.Hits + b.cdn.Misses - a.cdn.Misses)
	put("core.cdn_hit_ratio", ratio(float64(b.cdn.Hits-a.cdn.Hits), cdnLookups), "ratio")
	put("cachesketch.sketch_bytes", float64(rp.ws1.sketchBytes), "B")
	put("cachesketch.tracked_keys", float64(rp.ws1.tracked), "count")

	// Writes over the write window.
	wa, wb := rp.ws0, rp.ws1
	nw := float64(rp.writes.succeeded())
	put("pipeline.invalidations_per_write", ratio(float64(wb.core.Invalidations-wa.core.Invalidations), nw), "1/write")
	put("wal.appends_per_write", ratio(float64(wb.dur.WAL.Appends-wa.dur.WAL.Appends), nw), "1/write")
	put("wal.fsyncs_per_write", ratio(float64(wb.dur.WAL.Fsyncs-wa.dur.WAL.Fsyncs), nw), "1/write")
	put("durable.snapshots", float64(wb.dur.Snapshots-wa.dur.Snapshots), "count")

	// Go runtime over the closed loop.
	ca, cb := rp.s1, rp.s2
	put("runtime.alloc_kb_per_op", ratio(float64(cb.alloc-ca.alloc)/1024, rp.closedOps), "KB/op")
	put("runtime.gc_per_1k_ops", ratio(float64(cb.gcs-ca.gcs)*1000, rp.closedOps), "1/1000op")
	put("runtime.cpu_us_per_op", ratio(float64(cb.cpu-ca.cpu)/1e3, rp.closedOps), "us/op")

	// Write acknowledgement latency is reported here, not gated with the
	// end-to-end metrics: it follows the WAL's fsync, whose latency on a
	// shared virtual disk spreads more across runs than any bound allows.
	put("write_ack_p50_ms", chunkedQuantile(rp.writes.lat, 0.5)/1e6, "ms")
	put("write_ack_p99_ms", chunkedQuantile(rp.writes.lat, 0.99)/1e6, "ms")

	put("gen.late_ms_max", float64(rp.open.lateMax)/1e6, "ms")
	put("gen.backlog_max", float64(rp.open.backlogMax), "count")

	put("oracle.checked_loads", float64(rp.v.checkedLoads), "count")
	put("oracle.stale_reads", float64(rp.v.staleReads), "count")
	put("oracle.shell_mismatches", float64(rp.v.shellMismatches), "count")
	put("oracle.identity_leaks", float64(rp.v.identityLeaks), "count")
	put("oracle.blocks_not_bypassed", float64(rp.v.blocksNotBypassed), "count")
	put("oracle.ack_order_violations", float64(rp.v.ackOrder), "count")

	if !rp.cfg.trace {
		return m
	}
	ts := analyze(rp.t.spans)
	us("proxy.self_us_p50", quantile(ts.layerLoad[layerProxy], 0.5))
	for k := 0; k < nCalls; k++ {
		us("httpclient."+callNames[k]+"_us_p50", quantile(ts.callDur[k], 0.5))
	}
	us("httpclient.self_us_p50", quantile(ts.callSelf, 0.5))
	for _, o := range []int{edgeHit, edgeMiss, edgeRevalidated, edgeCoalesced} {
		us("edge."+edgeNames[o]+"_us_p50", quantile(ts.edgeDur[o], 0.5))
	}
	us("edge.passthrough_us_p50", quantile(ts.edgeDur[edgeBypass], 0.5))
	us("edge.self_us_p50", quantile(ts.edgeSelf, 0.5))
	us("edge.upstream_us_p50", quantile(ts.upDur, 0.5))
	us("edge.purge_us_p50", quantile(rp.t.purges, 0.5))
	for _, r := range []int{routePage, routeSketch, routeBlocks, routeWrite} {
		us("server."+routeNames[r]+"_us_p50", quantile(ts.serverDur[r], 0.5))
	}
	us("pipeline.write_self_us_p50", quantile(ts.writeSelf, 0.5))

	// The breakdown adds up: every layer's self time summed over the
	// traced loads, against those loads' summed durations.
	var selfSum, loadSum, p50Sum int64
	for l := 0; l < nLayers; l++ {
		selfSum += ts.layerTotal[l]
		p50Sum += int64(quantile(ts.layerLoad[l], 0.5))
	}
	for _, d := range ts.loadDur {
		loadSum += d
	}
	put("trace.loads", float64(len(ts.loadDur)), "count")
	put("trace.self_sum_ratio", ratio(float64(selfSum), float64(loadSum)), "ratio")
	put("trace.layer_p50_sum_ratio", ratio(float64(p50Sum), quantile(ts.loadDur, 0.5)), "ratio")
	put("trace.overhead_ms", (chunkedQuantile(rp.open.latTraced, 0.5)-chunkedQuantile(rp.open.lat, 0.5))/1e6, "ms")
	for l := 0; l < nLayers; l++ {
		put("trace.share_"+layerNames[l], ratio(float64(ts.layerTotal[l]), float64(loadSum)), "ratio")
	}
	return m
}

// print writes the human-readable breakdown: phases with their counts,
// every metric, and the oracle's verdict.
func (rp *report) print(e2e, layers map[string]metric) {
	w := rp.out
	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%d trace=%v Δ=%v poll=%v GOMAXPROCS=%d\n",
		rp.cfg.w.name, rp.cfg.seed, rp.cfg.seconds, rp.cfg.trace, rp.cfg.delta, rp.cfg.poll, runtime.GOMAXPROCS(0))
	for _, p := range []*phase{rp.open, rp.closed, rp.check, rp.writes} {
		fmt.Fprintf(w, "phase %-11s attempted=%d succeeded=%d failed=%d", p.name, p.attempted.Load(), p.succeeded(), p.failed.Load())
		if p.firstErr != "" {
			fmt.Fprintf(w, " first_error=%q", p.firstErr)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "samples: load latency n=%d (traced %d), write ack n=%d; setups %v s\n",
		len(rp.open.lat), len(rp.open.latTraced), len(rp.writes.lat), rp.setupS)
	fmt.Fprintf(w, "errors outside the measured ops: edge sketch polls %d, purge notifications %d\n",
		rp.t.c.pollErrs.Load(), rp.t.c.purgeErrs.Load())
	for _, group := range []map[string]metric{e2e, layers} {
		names := make([]string, 0, len(group))
		for k := range group {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Fprintf(w, "  %-36s %14.4f %s\n", k, group[k].Value, group[k].Unit)
		}
	}
	v := rp.v
	fmt.Fprintf(w, "oracle: loads=%d stale_reads=%d (worst %v beyond Δ) shell_mismatches=%d identity_leaks=%d blocks_not_bypassed=%d ack_order=%d ok=%v\n",
		v.checkedLoads, v.staleReads, v.worstBeyondDelta, v.shellMismatches, v.identityLeaks, v.blocksNotBypassed, v.ackOrder, v.ok())
	if v.firstProblem != "" {
		fmt.Fprintf(w, "oracle: first problem: %s\n", v.firstProblem)
	}
}
