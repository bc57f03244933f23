package main

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/lpce-db/lpce/internal/engine"
	"github.com/lpce-db/lpce/internal/exec"
	"github.com/lpce-db/lpce/internal/experiments"
	"github.com/lpce-db/lpce/internal/joblike"
	"github.com/lpce-db/lpce/internal/obs"
	"github.com/lpce-db/lpce/internal/query"
)

// serialQuery is one query of a single-client workload with its oracle
// COUNT.
type serialQuery struct {
	q    *query.Query
	want int
}

// runSerial executes qs one after another through engine.Execute, checks
// each result into t, folds each trace into l when l is non-nil, and
// returns the wall time of the whole sequence.
func runSerial(eng *engine.Engine, cfg engine.Config, qs []serialQuery, t *tally, l *layers) time.Duration {
	start := time.Now()
	for _, sq := range qs {
		qStart := time.Now()
		res, err := eng.Execute(sq.q, cfg)
		lat := time.Since(qStart)
		t.record(sq.q.Fingerprint(), lat, verify(res.Count, res.TimedOut, err, sq.want))
		if l != nil && res.Trace != nil {
			l.add(res.Trace)
		}
	}
	return time.Since(start)
}

// warmUp runs qs once, untimed, so the lazy indexes the workload uses are
// built before timing starts.
func warmUp(eng *engine.Engine, cfg engine.Config, qs []serialQuery) error {
	var t tally
	runSerial(eng, cfg, qs, &t, nil)
	if t.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d queries failed; first: %w", t.failed, t.attempted, t.firstErr)
	}
	return nil
}

// jobSuite parses the JOB-like queries in name order and counts each with
// a fresh oracle.
func jobSuite(env *experiments.Env) ([]serialQuery, error) {
	named, err := joblike.Queries(env.DB.Schema)
	if err != nil {
		return nil, err
	}
	oracle := exec.NewTrueCardOracle(env.DB)
	var suite []serialQuery
	for _, name := range joblike.Names() {
		want, err := exactCount(oracle, named[name])
		if err != nil {
			return nil, fmt.Errorf("job %s: %w", name, err)
		}
		suite = append(suite, serialQuery{named[name], want})
	}
	return suite, nil
}

// shuffledRound returns the suite in the next seeded order.
func shuffledRound(suite []serialQuery, rng *rand.Rand) []serialQuery {
	round := make([]serialQuery, len(suite))
	for i, p := range rng.Perm(len(suite)) {
		round[i] = suite[p]
	}
	return round
}

// jobTail is the job workload's tail percentile.
const jobTail = 99

// runJob is the execution-heavy workload: one client runs the 22 JOB-like
// queries serially, each round in a seeded order, for at least the timed
// phase and enough rounds to support the tail percentile.
func runJob(b *bench) error {
	env := b.setup.envs[0]
	suite, err := jobSuite(env)
	if err != nil {
		return err
	}
	eng := engine.New(env.DB)
	cfg := paperConfig(env, env.LPCEIEstimator(), nil)
	if err := warmUp(eng, cfg, suite); err != nil {
		return err
	}
	b.heap.mark()

	rng := rand.New(rand.NewSource(b.opts.seed))
	var seq []serialQuery
	var timed time.Duration
	var roundRates []float64
	for timed < b.opts.seconds || len(seq) < samplesFor(jobTail) {
		round := shuffledRound(suite, rng)
		d := runSerial(eng, cfg, round, &b.tally, nil)
		timed += d
		roundRates = append(roundRates, float64(len(round))/d.Seconds())
		seq = append(seq, round...)
	}
	b.heap.mark()
	// The median round's rate, so a stall that hits a few rounds does not
	// move the throughput.
	b.latencyMetrics(jobTail, median(roundRates))
	if b.opts.trace {
		b.tracedReplay(env, eng, seq, float64(len(seq))/timed.Seconds())
	}
	b.writeMetrics(writeProbe(env.DB, b.opts.seed))
	return nil
}

// tracedReplay runs an untraced pass's query sequence again with the
// program's tracing on and a counting estimator, and reports the
// per-layer metrics of the single-client workloads. Neither the server
// nor an estimate cache is on their path, so those layers read zero.
func (b *bench) tracedReplay(env *experiments.Env, eng *engine.Engine, seq []serialQuery, untracedQPS float64) {
	counter := &countingEstimator{inner: env.LPCEIEstimator()}
	// Bounded like the server's defaults, so a long pass keeps a window of
	// traces rather than all of them.
	o := obs.NewObserver()
	o.SetTraceCap(4096)
	o.CE().SetCap(4096)
	l := newLayers()
	elapsed := runSerial(eng, paperConfig(env, counter, o), seq, &b.tally, l)
	l.metrics(b.layer)
	estimatorMetrics(b.layer, counter, len(seq))
	storageMetrics(b.layer, o.Registry().Snapshot().Counters, len(seq))
	b.overhead(untracedQPS, float64(len(seq))/elapsed.Seconds())
	b.layer.add("server.overhead_ms", 0, "ms")
	b.layer.add("server.prepared_hit_frac", 0, "ratio")
	b.layer.add("cardest.cache_hit_frac", 0, "ratio")
}
