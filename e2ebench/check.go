package main

import (
	"errors"
	"fmt"
	"time"

	"github.com/lpce-db/lpce/internal/exec"
	"github.com/lpce-db/lpce/internal/query"
)

// errTimeout marks a query that exhausted its work budget.
var errTimeout = errors.New("query exceeded its work budget")

// verify classifies one query outcome: an error, a timeout, or a COUNT
// that differs from the oracle's is a failure.
func verify(count int, timedOut bool, err error, want int) error {
	switch {
	case err != nil:
		return err
	case timedOut:
		return errTimeout
	case count != want:
		return fmt.Errorf("COUNT %d, oracle %d", count, want)
	}
	return nil
}

// tally counts attempted and failed queries and keeps the latencies of the
// successful ones, in order and grouped by query fingerprint.
type tally struct {
	attempted, failed int
	firstErr          error
	latMs             []float64
	byQuery           map[uint64][]float64
}

// record adds one outcome, checked by verify, of the query with the given
// fingerprint.
func (t *tally) record(fp uint64, lat time.Duration, err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = err
		}
		return
	}
	if t.byQuery == nil {
		t.byQuery = map[uint64][]float64{}
	}
	t.latMs = append(t.latMs, ms(lat))
	t.byQuery[fp] = append(t.byQuery[fp], ms(lat))
}

// queryMedian returns the median, over the distinct queries, of each
// query's median latency. When a few queries repeat, the plain median of
// all samples sits on the edge between two queries' latencies and jumps
// between them from run to run; this one does not. When no query repeats
// it is the plain median.
func (t *tally) queryMedian() float64 {
	meds := make([]float64, 0, len(t.byQuery))
	for _, lat := range t.byQuery { //detlint:ignore — sorted before use
		meds = append(meds, median(lat))
	}
	return median(meds)
}

// exactCount returns the oracle's exact COUNT of the whole query, or an
// error when it exceeds the oracle's work budget.
func exactCount(o *exec.TrueCardOracle, q *query.Query) (int, error) {
	v, err := o.TryEstimate(q, q.AllTablesMask())
	if err != nil {
		return 0, fmt.Errorf("oracle count: %w", err)
	}
	return int(v), nil
}
