package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/lpce-db/lpce/internal/exec"
	"github.com/lpce-db/lpce/internal/experiments"
	"github.com/lpce-db/lpce/internal/joblike"
	"github.com/lpce-db/lpce/internal/server"
)

const (
	// serveClients is the number of closed-loop clients, one per tenant.
	serveClients = 2
	// serveEpoch is the serving time between two writes.
	serveEpoch = time.Second
	// serveTail is the serve workload's tail percentile.
	serveTail = 99
	// serveTraceCap bounds each tenant's retained traces in the untraced
	// pass. The window fills within the first epochs, so the live heap no
	// longer grows with the number of requests a host manages to serve.
	serveTraceCap = 256
	// writeSalt separates the write stream's seed from the clients'.
	writeSalt = 0x5eed
)

// serveRequest is one timed request as its client saw it.
type serveRequest struct {
	name string
	lat  time.Duration
	res  *server.QueryResult
	err  error
}

// servePass is what one pass of the serve workload measured.
type servePass struct {
	served   time.Duration // serving wall time, writes and oracle excluded
	requests int
	writes   []writeTimes
	// overheadMs sums client latency minus the server's own Elapsed over
	// successful requests; prepared counts prepared-statement hits.
	overheadMs float64
	prepared   int
	ok         int
}

func (p servePass) qps() float64 { return float64(p.requests) / p.served.Seconds() }

// serveClient is one closed-loop client: a tenant, a session, and its
// seeded statement stream, which deals every JOB-like statement once per
// shuffled deck so the mix stays the same from run to run.
type serveClient struct {
	tenant, session string
	rng             *rand.Rand
	deck            []string
}

func newServeClients(seed int64) []*serveClient {
	cs := make([]*serveClient, serveClients)
	for i := range cs {
		cs[i] = &serveClient{
			tenant:  fmt.Sprintf("t%d", i),
			session: fmt.Sprintf("client-%d", i),
			rng:     rand.New(rand.NewSource(seed*serveClients + int64(i))),
		}
	}
	return cs
}

// nextStatement deals the client's next JOB-like statement.
func (c *serveClient) nextStatement(names []string) string {
	if len(c.deck) == 0 {
		c.deck = make([]string, len(names))
		for i, p := range c.rng.Perm(len(names)) {
			c.deck[i] = names[p]
		}
	}
	name := c.deck[0]
	c.deck = c.deck[1:]
	return name
}

func (c *serveClient) query(srv *server.Server, name string) serveRequest {
	start := time.Now()
	res, err := srv.Query(context.Background(), server.QueryRequest{
		Tenant: c.tenant, Session: c.session, SQL: joblike.SQL[name],
	})
	return serveRequest{name: name, lat: time.Since(start), res: res, err: err}
}

// runServe is the serving workload: two closed-loop clients send JOB-like
// SQL text through server.Server.Query in LPCE-R mode. After every
// serveEpoch of serving, both clients are quiesced and a seeded write
// appends to every fact table and refreshes the statistics.
func runServe(b *bench) error {
	untraced, err := b.servePass(b.setup.envs[0], nil)
	if err != nil {
		return err
	}
	b.latencyMetrics(serveTail, untraced.qps())
	b.writeMetrics(untraced.writes)
	if !b.opts.trace {
		return nil
	}
	env := b.setup.envs[1]
	counter := &countingEstimator{inner: env.LPCEIEstimator()}
	traced, err := b.servePass(env, counter)
	if err != nil {
		return err
	}
	b.writeMetrics(traced.writes)
	b.overhead(untraced.qps(), traced.qps())
	b.layer.add("server.overhead_ms", ratio(traced.overheadMs, float64(traced.ok)), "ms")
	b.layer.add("server.prepared_hit_frac", ratio(float64(traced.prepared), float64(traced.ok)), "ratio")
	return nil
}

// servePass runs the serve workload once on env. With a counting
// estimator it is the traced pass: the estimator is installed under the
// tenants' caches, every trace is retained, and the per-layer metrics are
// read from the tenants' observers and counters.
func (b *bench) servePass(env *experiments.Env, counter *countingEstimator) (servePass, error) {
	var p servePass
	cfg := server.Config{
		DB:            env.DB,
		Enc:           env.Enc,
		Mode:          server.ModeLPCER,
		Models:        env.ModelSet(),
		Tenants:       []server.TenantConfig{{Name: "t0"}, {Name: "t1"}},
		MaxConcurrent: serveClients,
		Budget:        queryBudget,
		TraceCap:      serveTraceCap,
	}
	if counter != nil {
		cfg.TraceCap = -1 // keep every trace of the traced pass
	}
	srv, err := server.New(cfg)
	if err != nil {
		return p, err
	}
	defer srv.Close(context.Background())
	if counter != nil {
		srv.InstallEstimator("traced", counter, env.Refiner)
	}

	named, err := joblike.Queries(env.DB.Schema)
	if err != nil {
		return p, err
	}
	fps := make(map[string]uint64, len(named))
	for name, q := range named { //detlint:ignore — fills a map
		fps[name] = q.Fingerprint()
	}
	names := joblike.Names()
	clients := newServeClients(b.opts.seed)
	// Warm-up: every client prepares every statement once, which builds
	// the lazy indexes and fills the session and estimate caches.
	for _, c := range clients {
		for _, name := range names {
			if r := c.query(srv, name); r.err != nil {
				return p, fmt.Errorf("serve warm-up %s: %w", name, r.err)
			}
		}
	}
	before := srv.MetricsSnapshot().Counters
	traceStart := map[string]int{}
	for _, c := range clients {
		traceStart[c.tenant] = len(srv.TenantObserver(c.tenant).Traces())
	}
	counter.reset()
	b.heap.mark()

	writeRNG := rand.New(rand.NewSource(b.opts.seed ^ writeSalt))
	for {
		want, err := serveOracle(env)
		if err != nil {
			return p, err
		}
		reqs, wall := serveEpochRun(srv, clients, names)
		b.heap.mark()
		p.served += wall
		p.requests += len(reqs)
		for _, r := range reqs {
			var count int
			timedOut := false
			if r.err == nil {
				count, timedOut = r.res.Count, r.res.TimedOut
				p.ok++
				p.overheadMs += ms(r.lat - r.res.Elapsed)
				if r.res.Prepared {
					p.prepared++
				}
			}
			b.tally.record(fps[r.name], r.lat, verify(count, timedOut, r.err, want[r.name]))
		}
		if p.served >= b.opts.seconds && p.requests >= samplesFor(serveTail) {
			break
		}
		p.writes = append(p.writes, write(env.DB, writeRNG))
	}

	if counter != nil {
		after := srv.MetricsSnapshot().Counters
		l := newLayers()
		for _, c := range clients {
			for _, qt := range srv.TenantObserver(c.tenant).Traces()[traceStart[c.tenant]:] {
				l.add(qt)
			}
		}
		l.metrics(b.layer)
		estimatorMetrics(b.layer, counter, p.requests)
		delta := tenantDelta(before, after, clients)
		storageMetrics(b.layer, delta, p.requests)
		hits, misses := float64(delta["cardest.cache.hits"]), float64(delta["cardest.cache.misses"])
		b.layer.add("cardest.cache_hit_frac", ratio(hits, hits+misses), "ratio")
	}
	return p, nil
}

// serveOracle counts every JOB-like statement with a fresh oracle over the
// data as it stands now, so each epoch is checked against its own data.
func serveOracle(env *experiments.Env) (map[string]int, error) {
	named, err := joblike.Queries(env.DB.Schema)
	if err != nil {
		return nil, err
	}
	oracle := exec.NewTrueCardOracle(env.DB)
	want := make(map[string]int, len(named))
	for _, name := range joblike.Names() {
		if want[name], err = exactCount(oracle, named[name]); err != nil {
			return nil, fmt.Errorf("serve %s: %w", name, err)
		}
	}
	return want, nil
}

// serveEpochRun lets every client send requests until serveEpoch has
// passed, waits for their last requests to finish, and returns the
// requests in client order with the epoch's wall time.
func serveEpochRun(srv *server.Server, clients []*serveClient, names []string) ([]serveRequest, time.Duration) {
	start := time.Now()
	deadline := start.Add(serveEpoch)
	perClient := make([][]serveRequest, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *serveClient) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				perClient[i] = append(perClient[i], c.query(srv, c.nextStatement(names)))
			}
		}(i, c)
	}
	wg.Wait()
	wall := time.Since(start)
	var out []serveRequest
	for _, rs := range perClient {
		out = append(out, rs...)
	}
	return out, wall
}

// tenantDelta sums, over the clients' tenants, how much each tenant
// counter grew between two snapshots, keyed by the counter's own name.
func tenantDelta(before, after map[string]int64, clients []*serveClient) map[string]int64 {
	out := map[string]int64{}
	for _, c := range clients {
		prefix := "tenant." + c.tenant + "."
		for _, name := range []string{
			"storage.segments_total", "storage.segments_skipped", "storage.bytes_decoded",
			"cardest.cache.hits", "cardest.cache.misses",
		} {
			out[name] += after[prefix+name] - before[prefix+name]
		}
	}
	return out
}
