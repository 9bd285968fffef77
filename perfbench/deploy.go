package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sync"
	"time"

	"speedkit/internal/clock"
	"speedkit/internal/core"
	"speedkit/internal/durable"
	"speedkit/internal/edge"
	"speedkit/internal/httpapi"
	"speedkit/internal/httpclient"
	"speedkit/internal/obs"
	"speedkit/internal/proxy"
	"speedkit/internal/session"
)

// deployment is one device fleet → edge → server stack on loopback,
// assembled from the constructors the binaries use.
type deployment struct {
	cfg   *runConfig
	tap   *tap
	paths []string        // every page, fetched through the edge at set-up
	warm  [][]string      // per returning device, its set-up loads
	users []*session.User // registered with the server; devices' owners

	dataDir string
	store   *durable.Store
	svc     *core.Service
	edge    *edge.Proxy

	server, edgeSrv    *http.Server
	serverURL, edgeURL string

	devTransport   *http.Transport
	devClient      *http.Client
	edgeTransport  *http.Transport
	purgeTransport *http.Transport
	purgeClient    *http.Client
	writeTransport *http.Transport
	writeClient    *http.Client

	cancelPurge func()
	stopPoll    chan struct{}
	serving     sync.WaitGroup // listeners and the sketch poll loop
	purging     sync.WaitGroup // in-flight purge notifications

	fleet []*device // warmed returning devices (nil for first-visit)
}

// device is one logical client: a proxy over the HTTP transport. The
// slot that owns it is its only caller.
type device struct {
	p    *proxy.Proxy
	tr   *transport
	user int
}

// load runs one page load and then hands what it returned — the page
// bodies its transport calls fetched, and the assembled page — to the
// oracle. It returns the run-clock instant the load ended, taken before
// the oracle's work.
func (dev *device) load(ctx context.Context, t *tap, path string) (end int64, err error) {
	start := t.now()
	pl, err := dev.p.Load(ctx, path)
	end = t.now()
	dev.tr.flush()
	if err == nil {
		t.or.observeLoad(path, pl.Version, start, pl.Body, dev.user)
	}
	return end, err
}

func loopback() (net.Listener, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	return ln, "http://" + ln.Addr().String(), nil
}

func poolTransport(conns int) *http.Transport {
	return &http.Transport{
		Proxy:               nil,
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		IdleConnTimeout:     30 * time.Second,
	}
}

// setup builds the storefront, recovers durability from a fresh data
// directory, starts the server and edge listeners, and warms the edge
// and (for returning fleets) every device cache.
func setup(cfg *runConfig, users []*session.User, t *tap, paths []string, warm [][]string, n int) (*deployment, error) {
	d := &deployment{cfg: cfg, tap: t, paths: paths, warm: warm, users: users, stopPoll: make(chan struct{})}
	ok := false
	defer func() {
		if !ok {
			d.close()
		}
	}()

	d.dataDir = filepath.Join(cfg.workDir, fmt.Sprintf("data-%d-%d", os.Getpid(), n))
	if err := os.RemoveAll(d.dataDir); err != nil {
		return nil, err
	}
	d.store = durable.New(durable.Config{
		Dir:          d.dataDir,
		Clock:        clock.System,
		ColdWindow:   cfg.delta,
		BlindHorizon: 24 * time.Hour,
	})
	reg := obs.NewRegistry()
	svc, err := core.NewStorefront(core.StorefrontConfig{
		Config: core.Config{
			Clock:   clock.System,
			Seed:    cfg.seed,
			Delta:   cfg.delta,
			Obs:     reg,
			Tracer:  obs.NewTracerSeeded(clock.System, 1, 256, 2),
			SLO:     obs.NewDeltaSLO(obs.SLOConfig{Clock: clock.System, Registry: reg}),
			Durable: d.store,
		},
		Products: cfg.products,
	})
	if err != nil {
		return nil, err
	}
	d.svc = svc
	if _, err := svc.Recovery(); err != nil {
		return nil, fmt.Errorf("recover durability: %w", err)
	}

	sln, surl, err := loopback()
	if err != nil {
		return nil, err
	}
	d.serverURL = surl
	d.server = &http.Server{Handler: t.serverHandler(httpapi.New(svc, users).Handler())}
	d.serve(d.server, sln)

	d.edgeTransport = poolTransport(0)
	ep, _, err := edge.New(edge.Options{
		Upstream: surl,
		Client:   &http.Client{Timeout: 10 * time.Second, Transport: &upstreamRT{t: t, base: d.edgeTransport}},
	})
	if err != nil {
		return nil, err
	}
	d.edge = ep
	eln, eurl, err := loopback()
	if err != nil {
		return nil, err
	}
	d.edgeURL = eurl
	d.edgeSrv = &http.Server{Handler: t.edgeHandler(ep.Handler())}
	d.serve(d.edgeSrv, eln)

	// The edge primes its sketch and then polls it, as speedkit-edge does.
	ctx := context.Background()
	if err := ep.RefreshSketch(ctx); err != nil {
		return nil, fmt.Errorf("edge sketch: %w", err)
	}
	d.serving.Add(1)
	go func() {
		defer d.serving.Done()
		for {
			clock.Sleep(clock.System, cfg.poll)
			select {
			case <-d.stopPoll:
				return
			default:
			}
			if err := ep.RefreshSketch(ctx); err != nil {
				t.c.pollErrs.Add(1)
			}
		}
	}()

	// Purges ride the invalidation pipeline to the edge, as with
	// speedkit-server -notify-edge: the listener only spawns the POST.
	d.purgeTransport = poolTransport(0)
	d.purgeClient = &http.Client{Timeout: 5 * time.Second, Transport: d.purgeTransport}
	d.cancelPurge = svc.OnPurge(func(path string) {
		t0 := t.now()
		d.purging.Add(1)
		go func() {
			defer d.purging.Done()
			start := t.now()
			resp, err := d.purgeClient.Post(d.edgeURL+"/v1/purge?path="+url.QueryEscape(path), "", nil)
			if err != nil {
				t.c.purgeErrs.Add(1)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			t.recordPurge(t.now() - start)
		}()
		t.purgeSync.Add(t.now() - t0)
	})

	d.devTransport = poolTransport(nproc)
	d.devClient = &http.Client{Timeout: 10 * time.Second, Transport: &deviceRT{t: t, base: d.devTransport}}
	d.writeTransport = poolTransport(1)
	d.writeClient = &http.Client{Timeout: 10 * time.Second, Transport: d.writeTransport}

	//lint:ignore piiflow a device proxy owns its user by design; Load hands the device tracer only the path
	if err := d.warmUp(); err != nil {
		return nil, err
	}
	ok = true
	return d, nil
}

func (d *deployment) serve(srv *http.Server, ln net.Listener) {
	d.serving.Add(1)
	go func() {
		defer d.serving.Done()
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "perfbench: serve:", err)
		}
	}()
}

// newDevice builds one device proxy over its own HTTP transport and the
// fleet's shared connection pool.
func (d *deployment) newDevice(user int) *device {
	cfg := proxy.Config{
		User:   d.users[user],
		Region: d.users[user].Region,
		Delta:  d.cfg.delta,
	}
	if d.cfg.w.originBlocks {
		cfg.OriginBlocks = originBlocks
	}
	tr := d.tap.transport(httpclient.New(d.edgeURL, d.devClient))
	return &device{p: proxy.New(cfg, tr), tr: tr, user: user}
}

// warmUp fills the edge with every page, then has each returning device
// make its set-up loads, nproc callers at a time.
func (d *deployment) warmUp() error {
	errs := make(chan error, nproc)
	var wg sync.WaitGroup
	for c := 0; c < nproc; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(d.paths); i += nproc {
				resp, err := d.devClient.Get(d.edgeURL + "/v1/page?path=" + url.QueryEscape(d.paths[i]))
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("warm %s: %s", d.paths[i], resp.Status)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
	}

	d.fleet = make([]*device, d.cfg.w.devices)
	for i := range d.fleet {
		d.fleet[i] = d.newDevice(i % len(d.users))
	}
	for c := 0; c < nproc; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(d.fleet); i += nproc {
				dev := d.fleet[i]
				for _, path := range d.warm[i] {
					//lint:ignore piiflow a device proxy owns its user by design; Load hands the device tracer only the path
					if _, err := dev.load(context.Background(), d.tap, path); err != nil {
						errs <- err
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
	}
	return nil
}

// close stops everything setup started and waits for it, then removes
// the data directory.
func (d *deployment) close() {
	if d.cancelPurge != nil {
		d.cancelPurge()
	}
	d.purging.Wait()
	close(d.stopPoll)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, srv := range []*http.Server{d.edgeSrv, d.server} {
		if srv != nil {
			_ = srv.Shutdown(ctx)
		}
	}
	d.serving.Wait()
	for _, tr := range []*http.Transport{d.devTransport, d.edgeTransport, d.purgeTransport, d.writeTransport} {
		if tr != nil {
			tr.CloseIdleConnections()
		}
	}
	if d.edge != nil {
		_ = d.edge.Close()
	}
	if d.svc != nil {
		d.svc.Close()
	}
	if d.store != nil {
		_ = d.store.Close()
	}
	_ = os.RemoveAll(d.dataDir)
}

// originBlocks are the blocks consenting first-visit users fetch from
// the origin: the home page's greeting, and the tier price on product
// and category pages — one block per page.
var originBlocks = map[string]bool{"greeting": true, "tier": true}
