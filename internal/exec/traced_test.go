package exec

import (
	"testing"

	"github.com/lpce-db/lpce/internal/obs"
	"github.com/lpce-db/lpce/internal/plan"
	"github.com/lpce-db/lpce/internal/query"
	"github.com/lpce-db/lpce/internal/testutil"
	"github.com/lpce-db/lpce/internal/workload"
)

// TestTraceRecordsEveryOperator: with a trace installed, every plan node
// must yield one OpStats record whose actual cardinality matches the
// node's stamped true cardinality.
func TestTraceRecordsEveryOperator(t *testing.T) {
	db := testutil.TinyDB()
	g := workload.NewGenerator(db, 41)
	q := g.Query(3)
	p := CanonicalPlan(q, q.AllTablesMask())
	tr := &obs.ExecTrace{}
	ctx := newCtx(db, q)
	ctx.Trace = tr
	count, err := RunBatch(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Ops) != p.NumNodes() {
		t.Fatalf("trace has %d ops, plan has %d nodes", len(tr.Ops), p.NumNodes())
	}
	p.Walk(func(n *plan.Node) {
		s := tr.ByMask(n.Tables)
		if s == nil {
			t.Fatalf("no stats for node %v covering %b", n.Op, uint32(n.Tables))
		}
		if s.Op != n.Op.String() {
			t.Fatalf("op mismatch: %s vs %v", s.Op, n.Op)
		}
		if s.ActualRows != n.TrueCard {
			t.Fatalf("%v: actual %v != true card %v", n.Op, s.ActualRows, n.TrueCard)
		}
		if s.Rows != int64(n.TrueCard) {
			t.Fatalf("%v: rows %d != true card %v", n.Op, s.Rows, n.TrueCard)
		}
	})
	root := tr.ByMask(q.AllTablesMask())
	if int(root.ActualRows) != count {
		t.Fatalf("root actual %v != count %d", root.ActualRows, count)
	}
}

// TestTraceMarksAbortedOperators: operators unwound by the work budget must
// report ActualRows = -1 (cardinality unknown), not a misleading partial
// count.
func TestTraceMarksAbortedOperators(t *testing.T) {
	db := testutil.TinyDB()
	g := workload.NewGenerator(db, 42)
	q := g.Query(3)
	p := CanonicalPlan(q, q.AllTablesMask())
	tr := &obs.ExecTrace{}
	ctx := newCtx(db, q)
	ctx.Budget = 10
	ctx.Trace = tr
	if _, err := RunBatch(ctx, p); err == nil {
		t.Fatal("expected budget error")
	}
	if len(tr.Ops) == 0 {
		t.Fatal("aborted execution left no trace")
	}
	aborted := 0
	for _, s := range tr.Ops {
		if s.ActualRows < 0 {
			aborted++
		}
	}
	if aborted == 0 {
		t.Fatalf("no operator marked aborted: %+v", tr.Ops)
	}
}

// TestTraceIdenticalResults: tracing must not change query results or the
// work accounting.
func TestTraceIdenticalResults(t *testing.T) {
	db := testutil.TinyDB()
	g := workload.NewGenerator(db, 43)
	for i := 0; i < 5; i++ {
		q := g.Query(3)
		plain := newCtx(db, q)
		want, err := RunBatch(plain, CanonicalPlan(q, q.AllTablesMask()))
		if err != nil {
			t.Fatal(err)
		}
		traced := newCtx(db, q)
		traced.Trace = &obs.ExecTrace{}
		got, err := RunBatch(traced, CanonicalPlan(q, q.AllTablesMask()))
		if err != nil {
			t.Fatal(err)
		}
		if got != want || traced.Work() != plain.Work() {
			t.Fatalf("traced run diverged: count %d vs %d, work %d vs %d",
				got, want, traced.Work(), plain.Work())
		}
	}
}

// benchQuery builds a fixed query/plan pair for the overhead benchmarks.
func benchQuery(b *testing.B) (*query.Query, *plan.Node, *Ctx) {
	b.Helper()
	db := testutil.TinyDB()
	g := workload.NewGenerator(db, 44)
	q := g.Query(3)
	return q, CanonicalPlan(q, q.AllTablesMask()), newCtx(db, q)
}

// BenchmarkExecTraceOff is the baseline: tracing disabled, so the trace
// shim is never installed. Compare with BenchmarkExecTraceOn to price the
// enabled trace layer; the disabled layer is structurally free (no wrapper,
// and the nil-path obs calls are allocation-free — see
// obs.TestDisabledRecordingAllocFree).
func BenchmarkExecTraceOff(b *testing.B) {
	q, p, ctx := benchQuery(b)
	_ = q
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunBatch(ctx, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecTraceOn executes the same plan with per-operator stats
// collection installed.
func BenchmarkExecTraceOn(b *testing.B) {
	q, p, ctx := benchQuery(b)
	_ = q
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ctx.Trace = &obs.ExecTrace{}
		if _, err := RunBatch(ctx, p); err != nil {
			b.Fatal(err)
		}
	}
}
