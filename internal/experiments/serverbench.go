package experiments

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/lpce-db/lpce/internal/engine"
	"github.com/lpce-db/lpce/internal/query"
	"github.com/lpce-db/lpce/internal/server"
	"github.com/lpce-db/lpce/internal/workload"
)

// ServerBenchResult is the serving-subsystem benchmark recorded in
// BENCH_e2e.json: the environment's low-join suite pushed through the full
// internal/server path — HTTP-free but otherwise end to end: admission,
// per-tenant rate limiting, sessions, SQL re-parse, per-tenant caches — by
// concurrent workers across two tenants, with one model hot-swap landing
// mid-run. Tenants run with a deliberately tight token bucket, and clients
// retry sheds with jittered backoff honoring the server's retry hints, so
// the snapshot exercises the whole overload-control loop: every query must
// still land (served-count parity with the submitted workload). Latency is
// client-observed across all retries (admission wait and backoff included).
type ServerBenchResult struct {
	Tenants int `json:"tenants"`
	Workers int `json:"workers"`
	Queries int `json:"queries"`
	// RateQPS/RateBurst are the per-tenant token-bucket parameters the run
	// used; RateQPS > 0 arms benchdiff's served-count parity gate.
	RateQPS   float64 `json:"rate_qps"`
	RateBurst int     `json:"rate_burst"`
	// Swaps counts model hot-swaps during the run (at least 1: the mid-run
	// swap is part of the scenario, not an option).
	Swaps       int64   `json:"swaps"`
	WallSeconds float64 `json:"wall_seconds"`
	QPS         float64 `json:"qps"`
	P50Millis   float64 `json:"p50_ms"`
	P99Millis   float64 `json:"p99_ms"`
	// Served counts queries that completed successfully (possibly after
	// retries); Shed counts queries the server turned away even after the
	// client's retry budget — sheds are accounted, not errors. Under a
	// correctly-tuned bucket Served == Queries and Shed == 0.
	Served int `json:"served"`
	Shed   int `json:"shed"`
	// Retries is the pool-wide retry total; RateLimitHits is the server-side
	// count of 429s issued (every one was absorbed by client backoff when
	// Served == Queries).
	Retries       int64 `json:"retries"`
	RateLimitHits int64 `json:"rate_limit_hits"`
	// Errors counts queries that failed through the server for any reason
	// other than a shed; the bench gate fails on any, since the same queries
	// succeed on a bare engine.
	Errors int `json:"errors"`
	// CountsIdentical asserts every served COUNT(*) matched the bare
	// engine's answer for the same query — the serving layers (admission,
	// caching, sessions, swap) must be semantically invisible.
	CountsIdentical bool `json:"counts_identical"`
}

// ServerBench measures multi-tenant serving throughput and latency
// percentiles over the environment's LPCE-R stack.
func ServerBench(e *Env, workers int) (*ServerBenchResult, error) {
	if workers < 1 {
		workers = 1
	}
	var queries []*query.Query
	for i := 0; i < 4; i++ { // repeats exercise the prepared-statement and estimate caches
		queries = append(queries, e.JoinLow...)
	}
	n := len(queries)
	if n == 0 {
		return nil, fmt.Errorf("serverbench: environment has no workload")
	}

	// Bare-engine oracle counts, serial.
	eng := engine.New(e.DB)
	oracle := make([]int, n)
	for i, q := range queries {
		res, err := eng.Execute(q, engine.Config{Estimator: e.LPCEIEstimator(), Refiner: e.Refiner})
		if err != nil {
			return nil, fmt.Errorf("serverbench: oracle query %d: %w", i, err)
		}
		oracle[i] = res.Count
	}

	// Per-tenant token bucket, deliberately tighter than the unthrottled
	// arrival rate (the unlimited run clears this suite in ~tens of ms) so
	// the limiter actually fires, but with enough sustained qps that client
	// backoff absorbs every shed well inside its retry budget.
	const (
		rateQPS   = 200.0
		rateBurst = 4
	)
	srv, err := server.New(server.Config{
		DB:            e.DB,
		Enc:           e.Enc,
		Mode:          server.ModeLPCER,
		Models:        e.ModelSet(),
		ModelsVersion: "bench-v1",
		Tenants: []server.TenantConfig{
			{Name: "alpha", Weight: 1, RateQPS: rateQPS, RateBurst: rateBurst},
			{Name: "beta", Weight: 1, RateQPS: rateQPS, RateBurst: rateBurst},
		},
		MaxConcurrent:  int64(workers),
		MaxQueue:       2 * n,
		DefaultTimeout: 5 * time.Minute,
		CacheCapacity:  65536,
	})
	if err != nil {
		return nil, err
	}
	defer srv.Close(context.Background())

	// Compliant overload-control client: jittered exponential backoff with a
	// pool-wide retry budget, retrying only the server's shed classes and
	// honoring its Retry-After hints as delay floors.
	backoff := workload.Backoff{
		Base:        2 * time.Millisecond,
		Max:         50 * time.Millisecond,
		MaxAttempts: 8,
		Seed:        42,
		Budget:      workload.NewRetryBudget(int64(n) * 8),
	}
	retryable := func(err error) bool {
		return errors.Is(err, server.ErrRateLimited) || errors.Is(err, server.ErrQueueFull)
	}

	var (
		done      atomic.Int64
		retries   atomic.Int64
		swapOnce  sync.Once
		mu        sync.Mutex
		latencies = make([]float64, 0, n)
		served    int
		shed      int
		errCount  int
		identical = true
	)
	start := time.Now()
	workload.RunEach(context.Background(), n, workers, func(i int) error {
		tenant := []string{"alpha", "beta"}[i%2]
		qStart := time.Now()
		var res *server.QueryResult
		attempts, err := backoff.Retry(context.Background(), uint64(i), retryable, func() error {
			var qerr error
			res, qerr = srv.Query(context.Background(), server.QueryRequest{
				Tenant:  tenant,
				Session: fmt.Sprintf("%s-%d", tenant, i%workers),
				SQL:     queries[i].SQL(),
			})
			return qerr
		})
		lat := time.Since(qStart)
		retries.Add(int64(attempts - 1))
		mu.Lock()
		latencies = append(latencies, float64(lat)/float64(time.Millisecond))
		switch {
		case err == nil:
			served++
			if res.Count != oracle[i] {
				identical = false
			}
		case retryable(err):
			// Shed even after the retry budget: accounted, not an error.
			shed++
		default:
			errCount++
		}
		mu.Unlock()
		// Halfway through, hot-swap to a freshly-wired serving set of the
		// same models: the swap itself is the thing under test.
		if done.Add(1) == int64(n/2) {
			swapOnce.Do(func() {
				srv.InstallEstimator("bench-v2", e.LPCEIEstimator(), e.Refiner)
			})
		}
		return nil
	})
	wall := time.Since(start)

	snap := srv.MetricsSnapshot()
	p50, p99 := latencyPercentiles(latencies)
	r := &ServerBenchResult{
		Tenants:         2,
		Workers:         workers,
		Queries:         n,
		RateQPS:         rateQPS,
		RateBurst:       rateBurst,
		Swaps:           snap.Counters["server.model_swaps"],
		WallSeconds:     wall.Seconds(),
		QPS:             float64(n) / wall.Seconds(),
		P50Millis:       p50,
		P99Millis:       p99,
		Served:          served,
		Shed:            shed,
		Retries:         retries.Load(),
		RateLimitHits:   snap.Counters["tenant.alpha.server.shed.rate_limited"] + snap.Counters["tenant.beta.server.shed.rate_limited"],
		Errors:          errCount,
		CountsIdentical: identical && errCount == 0,
	}
	return r, nil
}

// latencyPercentiles returns the p50 and p99 of per-request latencies, on
// Percentile's 0–100 scale.
func latencyPercentiles(ms []float64) (p50, p99 float64) {
	return Percentile(ms, 50), Percentile(ms, 99)
}
