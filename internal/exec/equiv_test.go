package exec

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"github.com/lpce-db/lpce/internal/plan"
	"github.com/lpce-db/lpce/internal/query"
	"github.com/lpce-db/lpce/internal/storage"
	"github.com/lpce-db/lpce/internal/testutil"
	"github.com/lpce-db/lpce/internal/workload"
)

// The batch executor is checked against two references that share no
// operator code with it:
//
//   - the golden fixture (golden_test.go), recorded from the tuple-at-a-time
//     executor the batch engine replaced, pins work totals, materialized-row
//     totals, checkpoint sequences, row order, and the typed errors under
//     budget / MaxMatRows / re-optimization limits;
//   - the collect evaluator behind RunCollect pins counts, row multisets and
//     the TrueCard stamped on every node the executor runs.
//
// The parallel suites check every worker count against serial batch.
//
// One caveat is intentional: when Budget AND MaxMatRows are BOTH set and
// both trip inside the same drained batch, the lumped charges can surface
// ErrBudget where a tuple-at-a-time drain surfaces a *ResourceError (or vice
// versa); the limits are therefore exercised separately, which is also how
// the engine configures them in practice.

// ckptEvent is one checkpoint observation: which node materialized, how
// many rows, and a content hash of the rows in order.
type ckptEvent struct {
	mask query.BitSet
	card int
	hash uint64
}

type ckptRecorder struct {
	events []ckptEvent
	failAt query.BitSet // when non-zero, return a ReoptSignal at this mask
}

func (r *ckptRecorder) OnMaterialized(n *plan.Node, rows [][]int64) error {
	r.events = append(r.events, ckptEvent{n.Tables, len(rows), hashRows(rows)})
	if r.failAt != 0 && n.Tables == r.failAt {
		return &ReoptSignal{Node: n, Actual: len(rows)}
	}
	return nil
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func hashRows(rows [][]int64) uint64 {
	var h uint64 = fnvOffset
	for _, row := range rows {
		for _, v := range row {
			h ^= uint64(v)
			h *= fnvPrime
		}
	}
	return h
}

// rowDigest summarizes a stream of rows: the count, an order-sensitive
// hash of the rows in emission order, and an order-insensitive multiset
// hash (the sum of per-row hashes).
type rowDigest struct {
	count             int
	ordered, multiset uint64
}

func newRowDigest() rowDigest { return rowDigest{ordered: fnvOffset} }

func (d *rowDigest) add(row []int64) {
	var h uint64 = fnvOffset
	for _, v := range row {
		d.ordered ^= uint64(v)
		d.ordered *= fnvPrime
		h ^= uint64(v)
		h *= fnvPrime
	}
	d.multiset += h
	d.count++
}

// runPath executes a plan behind maybeExchange — the same wiring RunBatch
// uses — digesting every emitted row. On error it returns a zero digest.
func runPath(ctx *Ctx, p *plan.Node) (rowDigest, error) {
	op, err := BuildBatch(ctx, p)
	if err != nil {
		return rowDigest{}, err
	}
	op = maybeExchange(ctx, op)
	defer op.Close()
	if err := op.Open(ctx); err != nil {
		return rowDigest{}, err
	}
	d := newRowDigest()
	for {
		b, err := op.NextBatch(ctx)
		if err != nil {
			return rowDigest{}, err
		}
		if b == nil {
			break
		}
		for i := 0; i < b.Len(); i++ {
			d.add(b.Row(i))
		}
	}
	p.TrueCard = float64(d.count)
	return d, nil
}

// batchGoldenRunner is the goldenRunner for the batch executor.
func batchGoldenRunner(ctx *Ctx, p *plan.Node, wrap bool) (int, uint64, error) {
	if wrap {
		ctx.Wrap = wrapEven
	}
	d, err := runPath(ctx, p)
	return d.count, d.ordered, err
}

// wrapEven wraps operators covering an even number of tables in a
// pass-through shim, so ctx.Wrap replaces some operators of every plan and
// leaves the rest untouched.
func wrapEven(ctx *Ctx, op BatchOperator, n *plan.Node) BatchOperator {
	if len(n.Tables.Indices())%2 == 0 {
		return passThrough{op}
	}
	return op
}

type passThrough struct{ inner BatchOperator }

func (p passThrough) Open(ctx *Ctx) error                { return p.inner.Open(ctx) }
func (p passThrough) NextBatch(ctx *Ctx) (*Batch, error) { return p.inner.NextBatch(ctx) }
func (p passThrough) Close()                             { p.inner.Close() }

// trueCards collects mask -> TrueCard over the whole tree.
func trueCards(p *plan.Node) map[query.BitSet]float64 {
	out := make(map[query.BitSet]float64)
	p.Walk(func(n *plan.Node) { out[n.Tables] = n.TrueCard })
	return out
}

// ranTrueCards is trueCards restricted to the nodes the executor runs: an
// index nested-loop join probes its inner table's index directly and never
// runs the inner leaf, so that leaf keeps its initial TrueCard.
func ranTrueCards(p *plan.Node) map[query.BitSet]float64 {
	out := trueCards(p)
	p.Walk(func(n *plan.Node) {
		if n.Op == plan.NestLoopJoin && n.Right.IsLeaf() && n.Right.Op != plan.MatScan && len(n.JoinConds) > 0 {
			delete(out, n.Right.Tables)
		}
	})
	return out
}

// collectRef is the collect evaluator's answer for one plan: its row
// digest (collect stitches rows with the same joinMerge layout, so row
// multisets compare directly) and the TrueCard it stamps on every node.
type collectRef struct {
	rows  rowDigest
	cards map[query.BitSet]float64
}

func collectReference(t *testing.T, db *storage.Database, q *query.Query, p *plan.Node) collectRef {
	t.Helper()
	pc := p.Clone()
	rows, err := collect(&Ctx{DB: db, Q: q}, pc)
	if err != nil {
		t.Fatalf("%s: collect: %v", q.SQL(), err)
	}
	ref := collectRef{rows: newRowDigest(), cards: trueCards(pc)}
	for _, r := range rows {
		ref.rows.add(r)
	}
	return ref
}

// check compares a finished run of the plan — its digest d, with TrueCards
// stamped on p — with the reference: the same count, the same row
// multiset, and the same TrueCard on every node the executor ran.
func (ref collectRef) check(t *testing.T, p *plan.Node, d rowDigest, label string) {
	t.Helper()
	if d.count != ref.rows.count || d.multiset != ref.rows.multiset {
		t.Fatalf("%s: count/multiset %d/%x, collect %d/%x", label, d.count, d.multiset, ref.rows.count, ref.rows.multiset)
	}
	for mask, v := range ranTrueCards(p) {
		if ref.cards[mask] != v {
			t.Fatalf("%s: TrueCard at %b: %v, collect %v", label, uint32(mask), v, ref.cards[mask])
		}
	}
}

// equivCorpus yields randomized (query, plan-variant) pairs: canonical
// plans under each join algorithm, a mixed-operator assignment, and an
// index-scan conversion.
func equivCorpus(t *testing.T, db *storage.Database, seed int64, n int, fn func(q *query.Query, p *plan.Node, variant string)) {
	g := workload.NewGenerator(db, seed)
	for i := 0; i < n; i++ {
		q := g.Query(1 + i%3)
		base := CanonicalPlan(q, q.AllTablesMask())
		for _, op := range []plan.PhysOp{plan.HashJoin, plan.MergeJoin, plan.NestLoopJoin} {
			p := base.Clone()
			setJoinOps(p, op)
			fn(q, p, op.String())
		}
		// mixed operators: alternate join algorithms down the tree
		mixed := base.Clone()
		k := 0
		mixed.Walk(func(x *plan.Node) {
			if x.Op.IsJoin() {
				x.Op = []plan.PhysOp{plan.HashJoin, plan.MergeJoin, plan.NestLoopJoin}[k%3]
				k++
			}
		})
		fn(q, mixed, "mixed")
		// index scans on every eligible leaf
		idx := base.Clone()
		converted := false
		idx.Walk(func(x *plan.Node) {
			if x.IsLeaf() && len(x.Preds) > 0 && x.Preds[0].Op != query.OpNE {
				x.Op = plan.IndexScan
				x.IndexPred = &x.Preds[0]
				converted = true
			}
		})
		if converted {
			fn(q, idx, "indexscan")
		}
	}
}

// TestScalarBatchEquivalence checks plain runs of the corpus against the
// golden fixture (counts, row order, work, materialized rows, checkpoint
// sequences, TrueCards) and against the collect evaluator.
func TestScalarBatchEquivalence(t *testing.T) {
	checkGolden(t, "plain", batchGoldenRunner)
	db := testutil.TinyDB()
	equivCorpus(t, db, 41, 12, func(q *query.Query, p *plan.Node, variant string) {
		d, err := runPath(&Ctx{DB: db, Q: q, Controller: NopController{}}, p)
		if err != nil {
			t.Fatalf("%s/%s: %v", q.SQL(), variant, err)
		}
		collectReference(t, db, q, p).check(t, p, d, q.SQL()+"/"+variant)
	})
}

// sameTypedError reports whether two execution errors are the same typed
// failure: both nil, both ErrBudget, equal *ResourceError payloads, equal
// *ReoptSignal targets, or the same context error.
func sameTypedError(a, b error) bool {
	switch {
	case a == nil || b == nil:
		return a == nil && b == nil
	case errors.Is(a, ErrBudget) || errors.Is(b, ErrBudget):
		return errors.Is(a, ErrBudget) && errors.Is(b, ErrBudget)
	}
	var ra, rb *ResourceError
	if errors.As(a, &ra) || errors.As(b, &rb) {
		if !errors.As(a, &ra) || !errors.As(b, &rb) {
			return false
		}
		return *ra == *rb
	}
	var sa, sb *ReoptSignal
	if errors.As(a, &sa) || errors.As(b, &sb) {
		if !errors.As(a, &sa) || !errors.As(b, &sb) {
			return false
		}
		return sa.Node.Tables == sb.Node.Tables && sa.Actual == sb.Actual
	}
	return errors.Is(a, b) || errors.Is(b, a)
}

// TestScalarBatchEquivalenceUnderBudget sweeps work budgets across each
// plan's total against the golden fixture: the same typed error and the
// same checkpoints before it. A budget fails exactly when it is below the
// unlimited run's total.
func TestScalarBatchEquivalenceUnderBudget(t *testing.T) {
	var total int64
	for _, r := range checkGolden(t, "budget", batchGoldenRunner) {
		limit := r.Case[strings.LastIndexByte(r.Case, '/')+1:]
		if limit == "total" {
			total = r.Work
			continue
		}
		budget, err := strconv.ParseInt(limit, 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		if want := budget >= total; (r.Err == "") != want || (r.Err != "" && r.Err != "budget") {
			t.Fatalf("%s of %d: unexpected outcome %q", r.Case, total, r.Err)
		}
	}
}

// TestScalarBatchEquivalenceUnderMatLimit sweeps MaxMatRows limits against
// the golden fixture: the same typed error, the same materialized-row
// total, and on success the same work.
func TestScalarBatchEquivalenceUnderMatLimit(t *testing.T) {
	checkGolden(t, "matlimit", batchGoldenRunner)
}

// TestScalarBatchEquivalenceUnderReoptSignal fails the first hash build's
// checkpoint of multi-join plans: the signal must carry that checkpoint's
// node and cardinality, and match the golden fixture.
func TestScalarBatchEquivalenceUnderReoptSignal(t *testing.T) {
	recs := checkGolden(t, "reopt", batchGoldenRunner)
	for _, r := range recs {
		if len(r.Ckpts) == 0 {
			t.Fatalf("query %x: no checkpoint before the signal", r.Query)
		}
		last := r.Ckpts[len(r.Ckpts)-1]
		if want := fmt.Sprintf("reopt mask=%d actual=%d", last[0], last[1]); r.Err != want {
			t.Fatalf("query %x: err %q, want %q", r.Query, r.Err, want)
		}
	}
}

func TestScalarBatchEquivalenceUnderCancellation(t *testing.T) {
	db := testutil.TinyDB()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	equivCorpus(t, db, 45, 4, func(q *query.Query, p *plan.Node, variant string) {
		ctx := &Ctx{DB: db, Q: q, Controller: NopController{}, Context: cancelled}
		if _, err := runPath(ctx, p); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s/%s: expected context.Canceled, got %v", q.SQL(), variant, err)
		}
	})
}

// TestScalarBatchEquivalenceWithTraceAndWrap runs the corpus with tracing
// on and a ctx.Wrap shim on some operators: results and per-node trace rows
// must match the golden fixture.
func TestScalarBatchEquivalenceWithTraceAndWrap(t *testing.T) {
	checkGolden(t, "trace", batchGoldenRunner)
}

// TestBatchCollectDifferential is the differential check against the
// collect evaluator: generator queries over every plan variant of the
// corpus, plus every rotation of the mixed variant's join algorithms in
// both directions (so merge and nested-loop joins also stream into a hash
// join's probe side), run at every worker count with the segment layer on and off
// (RawScan), must return collect's count and row multiset and stamp
// collect's TrueCard on every node they run.
func TestBatchCollectDifferential(t *testing.T) {
	shrinkMorsels(t)
	db := segTinyDB(t)
	joinOps := []plan.PhysOp{plan.HashJoin, plan.MergeJoin, plan.NestLoopJoin}
	check := func(q *query.Query, p *plan.Node, variant string) {
		ref := collectReference(t, db, q, p)
		for _, raw := range []bool{false, true} {
			for _, w := range parallelWorkerCounts {
				pw := p.Clone()
				ctx := &Ctx{DB: db, Q: q, Controller: NopController{}, RawScan: raw, ExecWorkers: w}
				d, err := runPath(ctx, pw)
				label := fmt.Sprintf("%s/%s raw=%v w=%d", q.SQL(), variant, raw, w)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				ref.check(t, pw, d, label)
			}
		}
	}
	for seed := int64(60); seed < 66; seed++ {
		equivCorpus(t, db, seed, 6, func(q *query.Query, p *plan.Node, variant string) {
			check(q, p, variant)
			if variant != "mixed" {
				return
			}
			for off := 0; off < len(joinOps); off++ {
				for _, step := range []int{1, len(joinOps) - 1} {
					if off == 0 && step == 1 {
						continue // the corpus's own mixed variant
					}
					r := p.Clone()
					k := off
					r.Walk(func(x *plan.Node) {
						if x.Op.IsJoin() {
							x.Op = joinOps[k%len(joinOps)]
							k += step
						}
					})
					check(q, r, fmt.Sprintf("mixed/%d/%d", off, step))
				}
			}
		})
	}
}
