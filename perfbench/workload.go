package main

import (
	"math/rand"
	"time"

	"speedkit/internal/workload"
)

// workloadSpec is one traffic mix. Rates, fleet sizes and session
// lengths are the benchmark's own assumptions, sized for nproc = 2 so
// that the open loop runs well below saturation (README.md lists the
// measured utilization of each).
type workloadSpec struct {
	name string
	// rate is the open-loop page-load rate, loads/s.
	rate float64
	// writeRate is the write rate while the timed loads run (flash-sale);
	// zero keeps the timed phases read-only, and writes run only in the
	// checked phase at the end of the run (see checkedWriteRate).
	writeRate float64
	// devices is the returning fleet, one device per generator user,
	// each warmed at set-up with warmLoads page loads. Zero devices means
	// first-visit sessions instead: slots generator users, each running
	// sessions of sessionLoads loads, every session on a fresh device.
	devices             int
	slots, sessionLoads int
	originBlocks        bool
	// ramp runs the open loop (and flash-sale's writes) before timing
	// starts, so the timed window sees the system in steady state.
	ramp time.Duration
}

var workloads = map[string]workloadSpec{
	"returning": {
		name: "returning", rate: 6000,
		devices: 200, ramp: 2 * time.Second,
	},
	"first-visit": {
		name: "first-visit", rate: 1000,
		slots: 256, sessionLoads: 3, originBlocks: true, ramp: 2 * time.Second,
	},
	"flash-sale": {
		name: "flash-sale", rate: 800, writeRate: 200,
		// Every written key stays flagged for the lifetime of the copies
		// cached before its first write, so revalidations grow until the
		// hot set has been written: a long ramp lets that settle.
		devices: 200, ramp: 10 * time.Second,
	},
}

const (
	// warmLoads is how many page loads of its own stream a returning
	// device makes at set-up, filling its cache.
	warmLoads = 60
	// checkedWriteRate is the write rate of the checked phase that ends
	// every read-only run (flash-sale's rate): writes while loads keep
	// running, and the oracle holds those loads to Δ.
	checkedWriteRate = 200
	// checkedLoadRate caps the checked phase's load rate. Under writes,
	// loads revalidate and render at the origin. With returning's fleet
	// loading at 3000/s, write acknowledgements took 40–150 ms at p99 on
	// nproc = 2: they measured the overload, not the write path.
	checkedLoadRate = 500
)

// Traffic comes from the repository's own workload model: a
// workload.Generator per stream, whose users walk the shop funnel (home,
// category, product, cart) and pick products with Zipf popularity over
// the seeded catalog (workload.Config's default skew). Its users are the
// benchmark's devices (returning) or session slots (first-visit); its
// cart operations are device-local and load no page, so they are
// skipped, and its inter-arrival gaps are ignored: the open loop sets
// the rate.

// Each random stream of a run is seeded from the run's seed and its own
// stream number, so no two streams draw the same sequence.
const (
	streamLoads = iota + 1
	streamOwners
	streamWarm
	streamWrites
	streamPrices
)

func streamSeed(seed, stream int64) int64 { return seed*7919 + stream }

// sitePaths is every page of the storefront: home, categories, products.
func sitePaths(products int) []string {
	paths := []string{"/"}
	for _, c := range workload.Categories {
		paths = append(paths, workload.CategoryPath(c))
	}
	for i := 0; i < products; i++ {
		paths = append(paths, workload.ProductPath(i))
	}
	return paths
}

// nextPage returns the next page view of g's stream.
func nextPage(g *workload.Generator) workload.Op {
	for {
		if op := g.Next(); op.Path != "" {
			return op
		}
	}
}

// warmPages draws each returning device's set-up loads from a stream of
// their own.
func warmPages(products, devices int, seed int64) [][]string {
	if devices == 0 {
		return nil
	}
	g := workload.NewGenerator(workload.Config{Seed: streamSeed(seed, streamWarm), Products: products, Users: devices})
	warm := make([][]string, devices)
	for n := 0; n < devices*warmLoads; n++ {
		op := nextPage(g)
		warm[op.UserIdx] = append(warm[op.UserIdx], op.Path)
	}
	return warm
}

// job is one page load handed to a slot.
type job struct {
	slot int
	path string
	// fresh starts a new session on a new device owned by user.
	fresh bool
	user  int
	// seq numbers the job (the trace ID of a traced load).
	seq    uint64
	due    int64 // intended start, run clock ns
	traced bool
	ph     *phase
	// release returns a closed-loop caller's token.
	release chan struct{}
}

// generator draws the page-load stream from the seed: which slot
// (device) loads which page, and when first-visit sessions start.
type generator struct {
	ops      *workload.Generator
	rng      *rand.Rand // owners of first-visit sessions
	w        workloadSpec
	users    int
	sessions []int // loads left in each first-visit slot's session
	seq      uint64
}

func newGenerator(w workloadSpec, products, users int, seed int64) *generator {
	g := &generator{
		ops:   workload.NewGenerator(workload.Config{Seed: streamSeed(seed, streamLoads), Products: products, Users: w.slotCount()}),
		rng:   rand.New(rand.NewSource(streamSeed(seed, streamOwners))),
		w:     w,
		users: users,
	}
	if w.devices == 0 {
		g.sessions = make([]int, w.slots)
	}
	return g
}

func (w workloadSpec) slotCount() int {
	if w.devices > 0 {
		return w.devices
	}
	return w.slots
}

func (g *generator) next() *job {
	op := nextPage(g.ops)
	g.seq++
	j := &job{seq: g.seq, slot: op.UserIdx, path: op.Path}
	if g.sessions != nil {
		if g.sessions[j.slot] == 0 {
			j.fresh, j.user = true, g.rng.Intn(g.users)
			g.sessions[j.slot] = g.w.sessionLoads
		}
		g.sessions[j.slot]--
	}
	return j
}

// writeGen draws writes from the catalog-update operations of a
// workload.Generator stream (Zipf-hot products, the same popularity as
// the loads). Every write sets a new price, so it always changes the
// page and is acknowledged with a new version.
type writeGen struct {
	ops *workload.Generator
	rng *rand.Rand
}

func newWriteGen(products int, seed int64) *writeGen {
	return &writeGen{
		ops: workload.NewGenerator(workload.Config{Seed: streamSeed(seed, streamWrites), Products: products, WriteFraction: 0.5}),
		rng: rand.New(rand.NewSource(streamSeed(seed, streamPrices))),
	}
}

func (g *writeGen) next() (path string, price float64) {
	for {
		if op := g.ops.Next(); op.Kind == workload.UpdatePrice || op.Kind == workload.UpdateStock {
			return "/product/" + op.ProductID, 5 + g.rng.Float64()*200
		}
	}
}

// traceSlice alternates traced and untraced loads within a traced run's
// open loop, so both halves see the same system state and the
// difference of their medians is the tracing overhead.
const traceSlice = 250 * time.Millisecond
