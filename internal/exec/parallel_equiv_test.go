package exec

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"github.com/lpce-db/lpce/internal/obs"
	"github.com/lpce-db/lpce/internal/plan"
	"github.com/lpce-db/lpce/internal/query"
	"github.com/lpce-db/lpce/internal/testutil"
	"github.com/lpce-db/lpce/internal/workload"
)

// The morsel-driven parallel path must be observationally identical to the
// serial batch path for every worker count: same counts, same result rows
// in the same order, same TrueCard stamps, same checkpoint sequences, the
// same work and materialization totals on success, and the same typed
// errors under budget / MaxMatRows / reopt / cancellation. These tests
// sweep Workers ∈ {1, 2, 4, 8} over the same randomized corpus as the
// serial equivalence suite (which pins serial batch to the golden fixture
// and the collect evaluator), with morselSize shrunk so the tiny fixtures
// split into many morsels.

var parallelWorkerCounts = []int{1, 2, 4, 8}

// shrinkMorsels drops morselSize so TinyDB-sized inputs exercise real
// multi-morsel scheduling, and lifts the GOMAXPROCS worker clamp so every
// requested worker count runs genuinely concurrently even on a single-core
// host — the equivalence property must hold regardless of cores. Both are
// restored afterwards; tests in this package run sequentially, so the swap
// cannot race.
func shrinkMorsels(t *testing.T) {
	old := morselSize
	morselSize = 64
	t.Cleanup(func() { morselSize = old })
	t.Cleanup(SetExchangeWorkerCap(64))
}

// runPathWorkers runs a plan through runPath with the given worker count.
func runPathWorkers(ctx *Ctx, p *plan.Node, workers int) (rowDigest, error) {
	ctx.ExecWorkers = workers
	return runPath(ctx, p)
}

func TestScalarBatchParallelEquivalence(t *testing.T) {
	shrinkMorsels(t)
	db := testutil.TinyDB()
	equivCorpus(t, db, 41, 8, func(q *query.Query, p *plan.Node, variant string) {
		ps := p.Clone()
		rcS := &ckptRecorder{}
		ctxS := &Ctx{DB: db, Q: q, Controller: rcS}
		dS, errS := runPath(ctxS, ps)
		if errS != nil {
			t.Fatalf("%s/%s: serial err %v", q.SQL(), variant, errS)
		}
		tcS := trueCards(ps)
		for _, w := range parallelWorkerCounts {
			pw := p.Clone()
			rcW := &ckptRecorder{}
			ctxW := &Ctx{DB: db, Q: q, Controller: rcW}
			dW, errW := runPathWorkers(ctxW, pw, w)
			if errW != nil {
				t.Fatalf("%s/%s w=%d: err %v", q.SQL(), variant, w, errW)
			}
			if dW.count != dS.count || dW.ordered != dS.ordered {
				t.Fatalf("%s/%s w=%d: count/hash %d/%x, serial %d/%x", q.SQL(), variant, w, dW.count, dW.ordered, dS.count, dS.ordered)
			}
			if ctxW.Work() != ctxS.Work() {
				t.Fatalf("%s/%s w=%d: work %d, serial %d", q.SQL(), variant, w, ctxW.Work(), ctxS.Work())
			}
			if ctxW.MatRows() != ctxS.MatRows() {
				t.Fatalf("%s/%s w=%d: matRows %d, serial %d", q.SQL(), variant, w, ctxW.MatRows(), ctxS.MatRows())
			}
			if len(rcW.events) != len(rcS.events) {
				t.Fatalf("%s/%s w=%d: %d checkpoints, serial %d", q.SQL(), variant, w, len(rcW.events), len(rcS.events))
			}
			for i := range rcS.events {
				if rcW.events[i] != rcS.events[i] {
					t.Fatalf("%s/%s w=%d: checkpoint %d differs: %+v vs %+v",
						q.SQL(), variant, w, i, rcW.events[i], rcS.events[i])
				}
			}
			tcW := trueCards(pw)
			for mask, v := range tcS {
				if tcW[mask] != v {
					t.Fatalf("%s/%s w=%d: TrueCard at %b: %v, serial %v", q.SQL(), variant, w, uint32(mask), tcW[mask], v)
				}
			}
		}
	})
}

func TestScalarBatchParallelEquivalenceUnderBudget(t *testing.T) {
	shrinkMorsels(t)
	db := testutil.TinyDB()
	equivCorpus(t, db, 42, 4, func(q *query.Query, p *plan.Node, variant string) {
		probe := &Ctx{DB: db, Q: q, Controller: NopController{}}
		if _, err := RunBatch(probe, p.Clone()); err != nil {
			t.Fatalf("%s/%s: unlimited run failed: %v", q.SQL(), variant, err)
		}
		total := probe.Work()
		for _, budget := range []int64{1, total / 2, total - 1, total, total + 1} {
			if budget <= 0 {
				continue
			}
			rcS := &ckptRecorder{}
			ctxS := &Ctx{DB: db, Q: q, Controller: rcS, Budget: budget}
			_, errS := runPath(ctxS, p.Clone())
			for _, w := range []int{2, 4} {
				rcW := &ckptRecorder{}
				ctxW := &Ctx{DB: db, Q: q, Controller: rcW, Budget: budget}
				_, errW := runPathWorkers(ctxW, p.Clone(), w)
				if !sameTypedError(errS, errW) {
					t.Fatalf("%s/%s budget %d w=%d: serial err %v, parallel err %v", q.SQL(), variant, budget, w, errS, errW)
				}
				if len(rcW.events) != len(rcS.events) {
					t.Fatalf("%s/%s budget %d w=%d: %d checkpoints, serial %d",
						q.SQL(), variant, budget, w, len(rcW.events), len(rcS.events))
				}
				for i := range rcS.events {
					if rcW.events[i] != rcS.events[i] {
						t.Fatalf("%s/%s budget %d w=%d: checkpoint %d differs", q.SQL(), variant, budget, w, i)
					}
				}
			}
		}
	})
}

func TestScalarBatchParallelEquivalenceUnderMatLimit(t *testing.T) {
	shrinkMorsels(t)
	db := testutil.TinyDB()
	equivCorpus(t, db, 43, 4, func(q *query.Query, p *plan.Node, variant string) {
		probe := &Ctx{DB: db, Q: q, Controller: NopController{}}
		if _, err := RunBatch(probe, p.Clone()); err != nil {
			t.Fatal(err)
		}
		total := probe.MatRows()
		if total == 0 {
			return
		}
		for _, limit := range []int64{1, total / 2, total, total + 1} {
			if limit <= 0 {
				continue
			}
			ctxS := &Ctx{DB: db, Q: q, Controller: NopController{}, MaxMatRows: limit}
			_, errS := runPath(ctxS, p.Clone())
			for _, w := range []int{2, 4} {
				ctxW := &Ctx{DB: db, Q: q, Controller: NopController{}, MaxMatRows: limit}
				_, errW := runPathWorkers(ctxW, p.Clone(), w)
				if !sameTypedError(errS, errW) {
					t.Fatalf("%s/%s limit %d w=%d: serial err %v, parallel err %v", q.SQL(), variant, limit, w, errS, errW)
				}
				if ctxW.MatRows() != ctxS.MatRows() {
					t.Fatalf("%s/%s limit %d w=%d: matRows %d, serial %d",
						q.SQL(), variant, limit, w, ctxW.MatRows(), ctxS.MatRows())
				}
				if errS == nil && ctxW.Work() != ctxS.Work() {
					t.Fatalf("%s/%s limit %d w=%d: work %d, serial %d",
						q.SQL(), variant, limit, w, ctxW.Work(), ctxS.Work())
				}
			}
		}
	})
}

func TestScalarBatchParallelEquivalenceUnderReoptSignal(t *testing.T) {
	shrinkMorsels(t)
	db := testutil.TinyDB()
	g := workload.NewGenerator(db, 44)
	tested := 0
	for i := 0; i < 20 && tested < 6; i++ {
		q := g.Query(2)
		p := CanonicalPlan(q, q.AllTablesMask())
		failMask := p.Left.Right.Tables
		rcS := &ckptRecorder{failAt: failMask}
		_, errS := runPath(&Ctx{DB: db, Q: q, Controller: rcS}, p.Clone())
		for _, w := range []int{2, 4} {
			rcW := &ckptRecorder{failAt: failMask}
			_, errW := runPathWorkers(&Ctx{DB: db, Q: q, Controller: rcW}, p.Clone(), w)
			if !sameTypedError(errS, errW) {
				t.Fatalf("%s w=%d: serial err %v, parallel err %v", q.SQL(), w, errS, errW)
			}
			var sig *ReoptSignal
			if !errors.As(errW, &sig) || sig.Node.Tables != failMask {
				t.Fatalf("%s w=%d: expected ReoptSignal at %b, got %v", q.SQL(), w, uint32(failMask), errW)
			}
		}
		tested++
	}
	if tested == 0 {
		t.Fatal("no multi-join queries generated")
	}
}

func TestScalarBatchParallelEquivalenceUnderCancellation(t *testing.T) {
	shrinkMorsels(t)
	db := testutil.TinyDB()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	equivCorpus(t, db, 45, 3, func(q *query.Query, p *plan.Node, variant string) {
		for _, w := range []int{2, 4} {
			ctxW := &Ctx{DB: db, Q: q, Controller: NopController{}, Context: cancelled}
			_, errW := runPathWorkers(ctxW, p.Clone(), w)
			if !errors.Is(errW, context.Canceled) {
				t.Fatalf("%s/%s w=%d: expected context.Canceled, got %v", q.SQL(), variant, w, errW)
			}
		}
	})
}

// TestScalarBatchParallelWithTraceAndWrap checks that the exchange composes
// with the observability shims (aggregated per-node Rows/ActualRows match
// the serial trace) and that ctx.Wrap shims force the affected pipelines
// back to the serial batch path without changing results.
func TestScalarBatchParallelWithTraceAndWrap(t *testing.T) {
	shrinkMorsels(t)
	db := testutil.TinyDB()
	for _, wrap := range []WrapFunc{nil, wrapEven} {
		equivCorpus(t, db, 46, 4, func(q *query.Query, p *plan.Node, variant string) {
			trS := &obs.ExecTrace{}
			ctxS := &Ctx{DB: db, Q: q, Controller: NopController{}, Trace: trS, Wrap: wrap}
			dS, errS := runPath(ctxS, p.Clone())
			if errS != nil {
				t.Fatalf("%s/%s: serial err %v", q.SQL(), variant, errS)
			}
			for _, w := range []int{2, 4} {
				trW := &obs.ExecTrace{}
				ctxW := &Ctx{DB: db, Q: q, Controller: NopController{}, Trace: trW, Wrap: wrap}
				dW, errW := runPathWorkers(ctxW, p.Clone(), w)
				if errW != nil {
					t.Fatalf("%s/%s w=%d: err %v", q.SQL(), variant, w, errW)
				}
				if dW.count != dS.count || dW.ordered != dS.ordered {
					t.Fatalf("%s/%s w=%d: results differ under trace (counts %d/%d)", q.SQL(), variant, w, dW.count, dS.count)
				}
				for _, s := range trS.Ops {
					b := trW.ByMask(s.Mask)
					if b == nil {
						t.Fatalf("%s/%s w=%d: parallel trace missing op at %b", q.SQL(), variant, w, uint32(s.Mask))
					}
					if b.Rows != s.Rows || b.ActualRows != s.ActualRows {
						t.Fatalf("%s/%s w=%d: trace at %b: serial rows=%d actual=%v, parallel rows=%d actual=%v",
							q.SQL(), variant, w, uint32(s.Mask), s.Rows, s.ActualRows, b.Rows, b.ActualRows)
					}
				}
			}
		})
	}
}

// TestScalarBatchParallelNoGoroutineLeaks drives parallel runs to success,
// budget failure, and cancellation, then checks the exchange joined every
// worker it spawned.
func TestScalarBatchParallelNoGoroutineLeaks(t *testing.T) {
	shrinkMorsels(t)
	db := testutil.TinyDB()
	before := runtime.NumGoroutine()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	equivCorpus(t, db, 47, 3, func(q *query.Query, p *plan.Node, variant string) {
		for _, w := range []int{2, 8} {
			ctxOK := &Ctx{DB: db, Q: q, Controller: NopController{}}
			if _, err := runPathWorkers(ctxOK, p.Clone(), w); err != nil {
				t.Fatalf("%s/%s w=%d: %v", q.SQL(), variant, w, err)
			}
			ctxB := &Ctx{DB: db, Q: q, Controller: NopController{}, Budget: 10}
			_, _ = runPathWorkers(ctxB, p.Clone(), w)
			ctxC := &Ctx{DB: db, Q: q, Controller: NopController{}, Context: cancelled}
			_, _ = runPathWorkers(ctxC, p.Clone(), w)
		}
	})
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}
