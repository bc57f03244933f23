package exec

import (
	"testing"

	"github.com/lpce-db/lpce/internal/catalog"
	"github.com/lpce-db/lpce/internal/plan"
	"github.com/lpce-db/lpce/internal/query"
	"github.com/lpce-db/lpce/internal/storage"
	"github.com/lpce-db/lpce/internal/testutil"
	"github.com/lpce-db/lpce/internal/workload"
)

// dupDB builds a tiny hand-crafted database with heavy duplicate join keys
// so merge-join group handling is exercised deterministically.
func dupDB() (*storage.Database, *query.Query) {
	s := catalog.NewSchema()
	l := s.AddTable("l", catalog.PK("id"), catalog.Attr("k"))
	r := s.AddTable("r", catalog.FK("lk", l.Column("k")), catalog.Attr("v"))

	db := storage.NewDatabase(s)
	lt := storage.NewTable(l, 6)
	copy(lt.ColByName("id"), []int64{0, 1, 2, 3, 4, 5})
	copy(lt.ColByName("k"), []int64{7, 7, 7, 8, 9, 9})
	db.Tables[l.ID] = lt
	rt := storage.NewTable(r, 5)
	copy(rt.ColByName("lk"), []int64{7, 7, 9, 10, 9})
	copy(rt.ColByName("v"), []int64{1, 2, 3, 4, 5})
	db.Tables[r.ID] = rt
	lt.FinishLoad()
	rt.FinishLoad()

	q := query.New([]*catalog.Table{l, r},
		[]query.Join{{Left: r.Column("lk"), Right: l.Column("k")}}, nil)
	return db, q
}

func TestMergeJoinDuplicateGroups(t *testing.T) {
	db, q := dupDB()
	// key 7: 3 left x 2 right = 6; key 9: 2 x 2 = 4; total 10
	const want = 10
	for _, op := range []plan.PhysOp{plan.HashJoin, plan.MergeJoin, plan.NestLoopJoin} {
		p := CanonicalPlan(q, q.AllTablesMask())
		setJoinOps(p, op)
		got, err := RunBatch(&Ctx{DB: db, Q: q}, p)
		if err != nil {
			t.Fatalf("%v: %v", op, err)
		}
		if got != want {
			t.Fatalf("%v: count = %d, want %d", op, got, want)
		}
	}
}

func TestEmptyResultAllOperators(t *testing.T) {
	db, q0 := dupDB()
	l := db.Schema.Table("l")
	r := db.Schema.Table("r")
	// impossible predicate -> zero rows everywhere
	q := query.New([]*catalog.Table{l, r},
		[]query.Join{{Left: r.Column("lk"), Right: l.Column("k")}},
		[]query.Predicate{{Col: l.Column("k"), Op: query.OpLT, Operand: -100}})
	_ = q0
	for _, op := range []plan.PhysOp{plan.HashJoin, plan.MergeJoin, plan.NestLoopJoin} {
		p := CanonicalPlan(q, q.AllTablesMask())
		setJoinOps(p, op)
		got, err := RunBatch(&Ctx{DB: db, Q: q}, p)
		if err != nil {
			t.Fatalf("%v: %v", op, err)
		}
		if got != 0 {
			t.Fatalf("%v: count = %d, want 0", op, got)
		}
	}
}

func TestIndexScanWithInPredicate(t *testing.T) {
	db, _ := dupDB()
	l := db.Schema.Table("l")
	q := query.New([]*catalog.Table{l}, nil,
		[]query.Predicate{{Col: l.Column("k"), Op: query.OpIn, InSet: []int64{7, 9}}})
	leaf := plan.NewLeaf(plan.IndexScan, l, 0, q.PredsOn(l))
	leaf.IndexPred = &leaf.Preds[0]
	got, err := RunBatch(&Ctx{DB: db, Q: q}, leaf)
	if err != nil {
		t.Fatal(err)
	}
	if got != 5 { // three 7s + two 9s
		t.Fatalf("count = %d, want 5", got)
	}
}

func TestIndexScanEqualityUsesHashIndex(t *testing.T) {
	db, _ := dupDB()
	l := db.Schema.Table("l")
	q := query.New([]*catalog.Table{l}, nil,
		[]query.Predicate{{Col: l.Column("k"), Op: query.OpEQ, Operand: 7}})
	leaf := plan.NewLeaf(plan.IndexScan, l, 0, q.PredsOn(l))
	leaf.IndexPred = &leaf.Preds[0]
	got, err := RunBatch(&Ctx{DB: db, Q: q}, leaf)
	if err != nil {
		t.Fatal(err)
	}
	if got != 3 {
		t.Fatalf("count = %d, want 3", got)
	}
}

func TestNLJoinRescanPath(t *testing.T) {
	// Force the quadratic rescan path by making the inner child a join
	// (non-leaf), and compare against the hash-join reference.
	db := testutil.TinyDB()
	g := workload.NewGenerator(db, 131)
	for i := 0; i < 10; i++ {
		q := g.Query(2)
		// right-deep shape: t0 NLJ (t1 HJ t2); requires t0 joined to {1,2}
		m12 := query.NewBitSet().Set(1).Set(2)
		m0 := query.NewBitSet().Set(0)
		if !q.Connected(m12) || len(q.JoinsBetween(m0, m12)) == 0 {
			continue
		}
		inner := CanonicalPlan(q, m12)
		outer := plan.NewLeaf(plan.SeqScan, q.Tables[0], 0, q.PredsOn(q.Tables[0]))
		root := plan.NewJoin(plan.NestLoopJoin, outer, inner, q.JoinsBetween(m0, m12))
		got, err := RunBatch(&Ctx{DB: db, Q: q}, root)
		if err != nil {
			t.Fatal(err)
		}
		want, err := RunCollect(&Ctx{DB: db, Q: q}, CanonicalPlan(q, q.AllTablesMask()))
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("rescan NLJ = %d, want %d for %s", got, want, q.SQL())
		}
	}
}

func TestMultiConditionJoin(t *testing.T) {
	// Two tables joined on two columns simultaneously.
	s := catalog.NewSchema()
	a := s.AddTable("a", catalog.PK("id"), catalog.Attr("x"))
	b := s.AddTable("b", catalog.FK("a_id", a.Column("id")), catalog.FK("ax", a.Column("x")))
	db := storage.NewDatabase(s)
	at := storage.NewTable(a, 4)
	copy(at.ColByName("id"), []int64{0, 1, 2, 3})
	copy(at.ColByName("x"), []int64{5, 5, 6, 6})
	db.Tables[a.ID] = at
	bt := storage.NewTable(b, 4)
	copy(bt.ColByName("a_id"), []int64{0, 1, 2, 3})
	copy(bt.ColByName("ax"), []int64{5, 6, 6, 5}) // rows 1 and 3 mismatch x
	db.Tables[b.ID] = bt
	at.FinishLoad()
	bt.FinishLoad()

	q := query.New([]*catalog.Table{a, b},
		[]query.Join{
			{Left: b.Column("a_id"), Right: a.Column("id")},
			{Left: b.Column("ax"), Right: a.Column("x")},
		}, nil)
	const want = 2 // only rows 0 and 2 satisfy both conditions
	for _, op := range []plan.PhysOp{plan.HashJoin, plan.MergeJoin, plan.NestLoopJoin} {
		p := CanonicalPlan(q, q.AllTablesMask())
		setJoinOps(p, op)
		got, err := RunBatch(&Ctx{DB: db, Q: q}, p)
		if err != nil {
			t.Fatalf("%v: %v", op, err)
		}
		if got != want {
			t.Fatalf("%v: multi-cond count = %d, want %d", op, got, want)
		}
	}
	// brute force cross-check
	if got := testutil.BruteCount(db, q); got != want {
		t.Fatalf("brute force = %d, want %d", got, want)
	}
}

func TestOracleBudgetExceeded(t *testing.T) {
	db := testutil.TinyDB()
	g := workload.NewGenerator(db, 132)
	q := g.Query(3)
	o := NewTrueCardOracle(db)
	o.Budget = 5
	if _, err := o.TryEstimate(q, q.AllTablesMask()); err == nil {
		t.Fatal("expected budget error")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("EstimateSubset should panic on budget exhaustion")
		}
	}()
	o.EstimateSubset(q, q.AllTablesMask())
}

func TestOraclePipelinedMatchesCollect(t *testing.T) {
	db := testutil.TinyDB()
	g := workload.NewGenerator(db, 133)
	o := NewTrueCardOracle(db)
	for i := 0; i < 10; i++ {
		q := g.Query(2 + i%3)
		want, err := RunCollect(&Ctx{DB: db, Q: q}, CanonicalPlan(q, q.AllTablesMask()))
		if err != nil {
			t.Fatal(err)
		}
		if got := o.EstimateSubset(q, q.AllTablesMask()); int(got) != want {
			t.Fatalf("pipelined oracle %v != collected %d for %s", got, want, q.SQL())
		}
	}
}
