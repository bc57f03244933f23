package main

import (
	"sync/atomic"
	"time"

	"github.com/lpce-db/lpce/internal/cardest"
	"github.com/lpce-db/lpce/internal/obs"
	"github.com/lpce-db/lpce/internal/query"
)

// opNames are the physical operators whose self time and output rows the
// traced run reports.
var opNames = []string{"SeqScan", "IndexScan", "MatScan", "HashJoin", "MergeJoin", "NestLoopJoin"}

// countingEstimator wraps an estimator and counts its calls and the wall
// time spent in them. It is safe for concurrent use.
type countingEstimator struct {
	inner cardest.Estimator
	calls atomic.Int64
	nanos atomic.Int64
}

func (c *countingEstimator) Name() string { return c.inner.Name() }

func (c *countingEstimator) EstimateSubset(q *query.Query, mask query.BitSet) float64 {
	start := time.Now()
	v := c.inner.EstimateSubset(q, mask)
	c.nanos.Add(int64(time.Since(start)))
	c.calls.Add(1)
	return v
}

// reset clears the counts; it is a no-op on a nil estimator.
func (c *countingEstimator) reset() {
	if c != nil {
		c.calls.Store(0)
		c.nanos.Store(0)
	}
}

// selfTimes returns each operator's exclusive wall time within one
// execution attempt: its inclusive Wall minus the inclusive Wall of its
// direct children. A child is a maximal proper sub-mask among the
// attempt's operators (each plan node covers a distinct relation subset).
// The result is not clamped at zero, so an attempt's self times sum exactly
// to the inclusive time of its root operators.
func selfTimes(ops []obs.OpStats) []time.Duration {
	out := make([]time.Duration, len(ops))
	for i, op := range ops {
		out[i] = op.Wall
		for _, c := range ops {
			if isChild(ops, c.Mask, op.Mask) {
				out[i] -= c.Wall
			}
		}
	}
	return out
}

// isChild reports whether sub is a proper subset of parent with no other
// operator's mask strictly between them.
func isChild(ops []obs.OpStats, sub, parent query.BitSet) bool {
	if !properSubset(sub, parent) {
		return false
	}
	for _, o := range ops {
		if properSubset(sub, o.Mask) && properSubset(o.Mask, parent) {
			return false
		}
	}
	return true
}

func properSubset(a, b query.BitSet) bool { return a&b == a && a != b }

// layers accumulates the per-layer view of the queries of a traced pass.
type layers struct {
	queries int
	plan    time.Duration
	infer   time.Duration
	reopt   time.Duration
	exec    time.Duration
	reopts  int
	work    int64
	self    map[string]time.Duration
	rows    map[string]int64
	qerrs   []float64
}

func newLayers() *layers {
	return &layers{self: map[string]time.Duration{}, rows: map[string]int64{}}
}

// add folds one query's trace into the totals: its Eq. 7 phase split, the
// re-optimizations that fired, every attempt's operator self times and
// output rows, and the q-errors of the final plan's completed operators.
func (l *layers) add(qt *obs.QueryTrace) {
	l.queries++
	l.plan += qt.PlanTime
	l.infer += qt.InferTime
	l.reopt += qt.ReoptTime
	l.exec += qt.ExecTime
	l.work += qt.ExecWork
	for _, e := range qt.Events {
		if e.Triggered {
			l.reopts++
		}
	}
	for _, rd := range qt.Rounds {
		for i, d := range selfTimes(rd.Ops) {
			l.self[rd.Ops[i].Op] += d
			l.rows[rd.Ops[i].Op] += rd.Ops[i].Rows
		}
	}
	if fr := qt.FinalRound(); fr != nil {
		for _, op := range fr.Ops {
			if op.ActualRows >= 0 {
				l.qerrs = append(l.qerrs, op.QError())
			}
		}
	}
}

// metrics renders the accumulated totals as per-query means (times in ms)
// plus the q-error percentiles.
func (l *layers) metrics(m metricSet) {
	n := float64(l.queries)
	m.add("optimizer.plan_ms", ratio(ms(l.plan), n), "ms")
	m.add("cardest.infer_ms", ratio(ms(l.infer), n), "ms")
	m.add("reopt.ms", ratio(ms(l.reopt), n), "ms")
	m.add("reopt.per_query", ratio(float64(l.reopts), n), "count")
	m.add("exec.ms", ratio(ms(l.exec), n), "ms")
	m.add("exec.work", ratio(float64(l.work), n), "units")
	for _, op := range opNames {
		m.add("exec.self_ms."+op, ratio(ms(l.self[op]), n), "ms")
		m.add("exec.rows."+op, ratio(float64(l.rows[op]), n), "rows")
	}
	q := sortedCopy(l.qerrs)
	m.add("ce.qerror_p50", percentile(q, 50), "ratio")
	m.add("ce.qerror_p95", percentile(q, 95), "ratio")
}

// storageMetrics reports the zone-map skip share and the decoded bytes per
// query from the executor's storage counters, keyed by their registry
// names.
func storageMetrics(m metricSet, counters map[string]int64, queries int) {
	total := float64(counters["storage.segments_total"])
	skipped := float64(counters["storage.segments_skipped"])
	m.add("storage.segments_skipped_frac", ratio(skipped, total), "ratio")
	m.add("storage.bytes_decoded", ratio(float64(counters["storage.bytes_decoded"]), float64(queries)), "bytes")
}

// estimatorMetrics reports the calls per query and the mean time per call
// of a counting estimator.
func estimatorMetrics(m metricSet, c *countingEstimator, queries int) {
	calls := float64(c.calls.Load())
	m.add("cardest.calls_per_query", ratio(calls, float64(queries)), "count")
	m.add("cardest.us_per_call", ratio(float64(c.nanos.Load())/1e3, calls), "us")
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
