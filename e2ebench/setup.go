package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"github.com/lpce-db/lpce/internal/experiments"
)

// dbSeed fixes the database, the training workload and the models, so every
// workload seed runs against the same data: how much the synthetic data
// varies between seeds is not something the benchmark's bounds should
// absorb. The workload seed drives everything the benchmark generates on
// top of it.
const dbSeed = 1

// setupRuns is how many times a run builds the environment; setup_s is
// the median.
const setupRuns = 3

// setupResult holds the median set-up wall time, its attribution, and the
// environments kept for the workload.
type setupResult struct {
	envs                        []*experiments.Env
	wall, collect, train, other float64 // seconds, medians over setupRuns
}

// setupEnvs runs experiments.SetupWith setupRuns times and keeps the last
// keep environments. The remainder after collection and training is data
// generation, the data-driven estimator builds and test-set curation.
func setupEnvs(keep int) (setupResult, error) {
	var r setupResult
	var walls, collects, trains, others []float64
	for i := 0; i < setupRuns; i++ {
		start := time.Now()
		env, err := experiments.SetupWith(experiments.ScaleTiny, dbSeed, experiments.SetupOptions{})
		if err != nil {
			return r, fmt.Errorf("setup: %w", err)
		}
		wall := time.Since(start)
		walls = append(walls, wall.Seconds())
		collects = append(collects, env.CollectStats.Duration.Seconds())
		trains = append(trains, env.TrainTime.Seconds())
		others = append(others, (wall - env.CollectStats.Duration - env.TrainTime).Seconds())
		if i >= setupRuns-keep {
			r.envs = append(r.envs, env)
		}
		runtime.GC()
	}
	r.wall, r.collect, r.train, r.other = median(walls), median(collects), median(trains), median(others)
	fmt.Fprintf(os.Stderr, "e2ebench: setup %.3fs (collect %.3fs, train %.3fs, rest %.3fs)\n",
		r.wall, r.collect, r.train, r.other)
	return r, nil
}

// metrics reports the set-up attribution.
func (r setupResult) metrics(m metricSet) {
	m.add("setup.collect_s", r.collect, "s")
	m.add("setup.train_s", r.train, "s")
	m.add("setup.rest_s", r.other, "s")
}
