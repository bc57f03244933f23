// Command e2ebench is the repository benchmark: it drives the LPCE system
// from outside, through its public entry points, and reports the paper's
// Eq. 7 end-to-end query time (plan + inference + re-optimization +
// execution) on one of three workloads, checking every COUNT against an
// independent exact-count oracle.
//
//	e2ebench --workload job|deep|serve --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// the same untraced pass, then a traced pass over the same inputs, and
// prints the per-layer metrics. The last line of standard output is one
// JSON object; the exit code is non-zero on any failed query. README.md
// describes the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"github.com/lpce-db/lpce/internal/cardest"
	"github.com/lpce-db/lpce/internal/engine"
	"github.com/lpce-db/lpce/internal/experiments"
	"github.com/lpce-db/lpce/internal/obs"
	"github.com/lpce-db/lpce/internal/reopt"
)

// procs is the GOMAXPROCS every run uses. On a shared 2-vCPU host, a run
// on both vCPUs swung with the host's CPU steal far more than a run on
// one: the collector's stop-the-world phases wait for whichever vCPU is
// descheduled. Measured over alternating runs, the set-up time spread
// between quartiles was 58% of its median on two procs and 14% on one,
// and the serve write median spread 38% against 1.3%.
const procs = 1

// queryBudget is the per-query executor work budget, set explicitly
// because the tiny scale's own budget is not exported.
const queryBudget = 100_000_000

// options are the command-line arguments.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects the metrics of one run by name.
type metricSet map[string]metric

func (m metricSet) add(name string, v float64, unit string) { m[name] = metric{v, unit} }

// result is the JSON object printed as the last line of output.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*bench) error{
	"job":   runJob,
	"deep":  runDeep,
	"serve": runServe,
}

func main() {
	runtime.GOMAXPROCS(procs)
	opts, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(2)
	}
	res, err := run(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: job, deep or serve")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 15, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 adds a traced pass and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	if _, ok := workloads[*name]; !ok {
		return options{}, fmt.Errorf("unknown workload %q (want job, deep or serve)", *name)
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		return options{}, errors.New("--seconds must be positive and --trace 0 or 1")
	}
	return options{
		workload: *name,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
	}, nil
}

// bench is the state one run shares with the function running its workload.
type bench struct {
	opts  options
	setup setupResult
	heap  heapPeak
	tally tally
	// e2e and layer collect the end-to-end and per-layer metrics.
	e2e, layer metricSet
}

func run(opts options) (*result, error) {
	envs := 1
	if opts.trace && opts.workload == "serve" {
		envs = 2 // serve's writes mutate the data, so its traced pass needs a fresh copy
	}
	setup, err := setupEnvs(envs)
	if err != nil {
		return nil, err
	}
	b := &bench{opts: opts, setup: setup, e2e: metricSet{}, layer: metricSet{}}
	if err := workloads[opts.workload](b); err != nil {
		return nil, err
	}
	b.e2e.add("setup_s", setup.wall, "s")
	b.e2e.add("mem_peak_mb", b.heap.mb(), "MiB")
	b.setup.metrics(b.layer)

	res := &result{
		Correct:   b.tally.failed == 0,
		Attempted: b.tally.attempted,
		Failed:    b.tally.failed,
		Metrics:   b.e2e,
	}
	if opts.trace {
		res.Metrics = b.layer
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	if b.tally.firstErr != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %d of %d queries failed; first: %v\n",
			b.tally.failed, b.tally.attempted, b.tally.firstErr)
	}
	return res, nil
}

// paperConfig is the paper's full stack: LPCE-I initial estimates, the
// LPCE-R refiner, the default re-optimization policy and the explicit
// per-query work budget. o, when non-nil, turns on the program's tracing.
func paperConfig(env *experiments.Env, est cardest.Estimator, o *obs.Observer) engine.Config {
	return engine.Config{
		Estimator: est,
		Refiner:   env.Refiner,
		Policy:    reopt.DefaultPolicy(),
		Budget:    queryBudget,
		Obs:       o,
	}
}

// latencyMetrics reports the median query latency, the latency at the
// workload's tail percentile, and the throughput qps the workload measured.
func (b *bench) latencyMetrics(tail, qps float64) {
	lat := sortedCopy(b.tally.latMs)
	b.e2e.add("query_p50_ms", b.tally.queryMedian(), "ms")
	b.e2e.add("query_tail_ms", percentile(lat, tail), "ms")
	b.e2e.add("qps", qps, "1/s")
	fmt.Fprintf(os.Stderr, "e2ebench: %s: %d queries, %.2f/s, p50 %.3fms, p%g %.3fms\n",
		b.opts.workload, len(lat), qps, b.tally.queryMedian(), tail, percentile(lat, tail))
}

// writeMetrics reports the median write latency end to end and the median
// append and refresh times per layer.
func (b *bench) writeMetrics(ws []writeTimes) {
	var total, app, ref []float64
	for _, w := range ws {
		total = append(total, ms(w.append+w.refresh))
		app = append(app, ms(w.append))
		ref = append(ref, ms(w.refresh))
	}
	b.e2e.add("write_p50_ms", median(total), "ms")
	b.layer.add("maintain.append_ms", median(app), "ms")
	b.layer.add("maintain.refresh_ms", median(ref), "ms")
}

// overhead reports how much slower the traced pass ran than the untraced
// one, from their throughputs.
func (b *bench) overhead(untracedQPS, tracedQPS float64) {
	b.layer.add("trace.overhead_frac", ratio(untracedQPS, tracedQPS)-1, "ratio")
}
