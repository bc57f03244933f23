package exec

import (
	"testing"

	"github.com/lpce-db/lpce/internal/catalog"
	"github.com/lpce-db/lpce/internal/plan"
	"github.com/lpce-db/lpce/internal/query"
	"github.com/lpce-db/lpce/internal/storage"
)

// benchDB builds a synthetic two-table join workload sized for the probe
// hot path: a build side of buildRows distinct keys and a probe side of
// probeRows rows hitting those keys round-robin, plus a filter column so
// the scan-filter benchmarks have a predicate to vectorize.
func benchDB(buildRows, probeRows int) (*storage.Database, *query.Query) {
	s := catalog.NewSchema()
	b := s.AddTable("build", catalog.PK("id"), catalog.Attr("pad"))
	p := s.AddTable("probe", catalog.FK("bid", b.Column("id")), catalog.Attr("f"))

	db := storage.NewDatabase(s)
	bt := storage.NewTable(b, buildRows)
	for i := 0; i < buildRows; i++ {
		bt.ColByName("id")[i] = int64(i)
		bt.ColByName("pad")[i] = int64(i * 3)
	}
	db.Tables[b.ID] = bt
	pt := storage.NewTable(p, probeRows)
	for i := 0; i < probeRows; i++ {
		pt.ColByName("bid")[i] = int64(i % buildRows)
		pt.ColByName("f")[i] = int64(i % 100)
	}
	db.Tables[p.ID] = pt
	bt.FinishLoad()
	pt.FinishLoad()

	q := query.New([]*catalog.Table{b, p},
		[]query.Join{{Left: p.Column("bid"), Right: b.Column("id")}}, nil)
	return db, q
}

// joinPlan builds probe ⋈ build with the probe side outer, so the hash
// join's Next loop is the measured hot path.
func joinPlan(q *query.Query) *plan.Node {
	probe := plan.NewLeaf(plan.SeqScan, q.Tables[1], 1, nil)
	build := plan.NewLeaf(plan.SeqScan, q.Tables[0], 0, nil)
	return plan.NewJoin(plan.HashJoin, probe, build, q.Joins)
}

func BenchmarkHashJoinProbe(b *testing.B) {
	db, q := benchDB(4096, 1<<16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunBatch(&Ctx{DB: db, Q: q}, joinPlan(q)); err != nil {
			b.Fatal(err)
		}
	}
}

// scanPlan is a single-table filtered scan: f < 50 keeps half the rows.
func scanPlan(q *query.Query) (*plan.Node, *query.Query) {
	probe := q.Tables[1]
	q2 := query.New([]*catalog.Table{probe}, nil,
		[]query.Predicate{{Col: probe.Column("f"), Op: query.OpLT, Operand: 50}})
	return plan.NewLeaf(plan.SeqScan, probe, 0, q2.Preds), q2
}

func BenchmarkScanFilter(b *testing.B) {
	db, q := benchDB(64, 1<<18)
	p, q2 := scanPlan(q)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunBatch(&Ctx{DB: db, Q: q2}, p); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBatchProbeAllocsPerTuple asserts the headline allocation claim: the
// batch hash join allocates O(log n) blocks per execution (arena growth,
// hash table, batches) — amortized ~0 per tuple, where a tuple-at-a-time
// join allocates per build row (map growth + per-row copies). The threshold
// is generous so the test pins the complexity class, not exact counts.
func TestBatchProbeAllocsPerTuple(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is slow")
	}
	db, q := benchDB(4096, 1<<15)
	batch := testing.AllocsPerRun(5, func() {
		if _, err := RunBatch(&Ctx{DB: db, Q: q}, joinPlan(q)); err != nil {
			t.Fatal(err)
		}
	})
	if perTuple := batch / float64(1<<15); perTuple >= 0.01 {
		t.Fatalf("batch path allocates %v per probe tuple, want ~0", perTuple)
	}
}

// TestBuildScratchRecycled asserts the build scratch (chain tails, and on
// the parallel path the row hashes) recycles through the Ctx free-list: a
// warm context's serial build allocates only the vecTable itself — struct
// plus its three arrays — while a fresh context pays for the tails scratch
// on top of that.
func TestBuildScratchRecycled(t *testing.T) {
	rows := hashBuildRows(4096, 256)
	warmCtx := &Ctx{}
	buildVecTable(warmCtx, rows, buildConds, 1)
	warm := testing.AllocsPerRun(10, func() {
		buildVecTable(warmCtx, rows, buildConds, 1)
	})
	fresh := testing.AllocsPerRun(10, func() {
		buildVecTable(&Ctx{}, rows, buildConds, 1)
	})
	if warm > 4 {
		t.Fatalf("warm build allocates %v blocks, want ≤ 4 (scratch not recycled)", warm)
	}
	if warm >= fresh {
		t.Fatalf("warm build allocates %v blocks vs fresh %v, want fewer", warm, fresh)
	}
}

// TestBuildScratchParallelReturned asserts a parallel build hands both
// scratch buffers back to its Ctx, sized for reuse by the next build in the
// same execution.
func TestBuildScratchParallelReturned(t *testing.T) {
	old := morselSize
	morselSize = 64
	t.Cleanup(func() { morselSize = old })
	t.Cleanup(SetExchangeWorkerCap(8))
	ctx := &Ctx{}
	rows := hashBuildRows(5000, 256)
	buildVecTable(ctx, rows, buildConds, 4)
	if cap(ctx.buildHashes) < len(rows) {
		t.Fatalf("hash scratch not returned: cap %d, want ≥ %d", cap(ctx.buildHashes), len(rows))
	}
	if cap(ctx.buildTails) == 0 {
		t.Fatal("tails scratch not returned")
	}
}
