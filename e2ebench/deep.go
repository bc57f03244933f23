package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"

	"github.com/lpce-db/lpce/internal/engine"
	"github.com/lpce-db/lpce/internal/exec"
	"github.com/lpce-db/lpce/internal/storage"
	"github.com/lpce-db/lpce/internal/workload"
)

const (
	// deepMinJoins and deepMaxJoins bound the join count of deep queries;
	// candidates cycle through the range.
	deepMinJoins = 6
	deepMaxJoins = 8
	// deepOracleBudget is the work bound within which the oracle must count
	// a candidate for it to be kept; it keeps most deep queries cheap to
	// execute, so planning, inference and re-optimization dominate.
	deepOracleBudget = 1_000_000
	// deepPoolSeed fixes the generator of the deep query pool, as dbSeed
	// fixes the data: a pool drawn afresh per workload seed moves the
	// median by tens of percent between seeds, because a few queries in
	// each pool get plans that do 10-40x the oracle's work. The workload
	// seed orders the pool instead.
	deepPoolSeed = 1
	// deepWarmupSeed draws the warm-up queries from a stream of their own,
	// so no timed query repeats one.
	deepWarmupSeed = 2
	// deepPerSecond sizes the pool: one pass over seconds*deepPerSecond
	// queries takes about seconds on a 2-core x86-64 host. The pool is never
	// smaller than the deepTail percentile needs.
	deepPerSecond = 15
	// deepTail is the deep workload's tail percentile.
	deepTail = 95
	// deepWarmup is the number of warm-up queries.
	deepWarmup = 20
)

// curateDeep returns the first n generated 6–8-join queries whose exact
// COUNT the oracle computes within deepOracleBudget, with those counts.
func curateDeep(db *storage.Database, seed int64, n int) ([]serialQuery, error) {
	gen := workload.NewGenerator(db, seed)
	oracle := exec.NewTrueCardOracle(db)
	oracle.Budget = deepOracleBudget
	var out []serialQuery
	for candidates := 0; len(out) < n; candidates++ {
		if candidates > 50*n+1000 {
			return nil, fmt.Errorf("deep: only %d of %d candidates fit the oracle budget", len(out), candidates)
		}
		q, err := gen.Generate(deepMinJoins + candidates%(deepMaxJoins-deepMinJoins+1))
		if err != nil {
			return nil, err
		}
		want, err := exactCount(oracle, q)
		if errors.Is(err, exec.ErrBudget) {
			continue
		}
		if err != nil {
			return nil, err
		}
		out = append(out, serialQuery{q, want})
	}
	return out, nil
}

// runDeep is the planning-heavy workload: one client runs a pool of
// distinct 6–8-join queries serially, once each, in a seeded order. The
// pool and its oracle counts are built before timing starts.
func runDeep(b *bench) error {
	env := b.setup.envs[0]
	eng := engine.New(env.DB)
	cfg := paperConfig(env, env.LPCEIEstimator(), nil)
	warm, err := curateDeep(env.DB, deepWarmupSeed, deepWarmup)
	if err != nil {
		return err
	}
	if err := warmUp(eng, cfg, warm); err != nil {
		return err
	}
	size := max(int(math.Ceil(b.opts.seconds.Seconds()*deepPerSecond)), samplesFor(deepTail))
	pool, err := curateDeep(env.DB, deepPoolSeed, size)
	if err != nil {
		return err
	}
	seq := shuffledRound(pool, rand.New(rand.NewSource(b.opts.seed)))
	b.heap.mark()

	timed := runSerial(eng, cfg, seq, &b.tally, nil)
	b.heap.mark()
	fmt.Fprintf(os.Stderr, "e2ebench: deep: pool of %d queries\n", len(seq))
	b.latencyMetrics(deepTail, float64(len(seq))/timed.Seconds())
	if b.opts.trace {
		b.tracedReplay(env, eng, seq, float64(len(seq))/timed.Seconds())
	}
	b.writeMetrics(writeProbe(env.DB, b.opts.seed))
	return nil
}
