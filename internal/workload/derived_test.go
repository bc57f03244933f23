package workload

import (
	"testing"

	"github.com/lpce-db/lpce/internal/exec"
	"github.com/lpce-db/lpce/internal/query"
	"github.com/lpce-db/lpce/internal/testutil"
)

func TestDerivedEdgesExist(t *testing.T) {
	db := testutil.TinyDB()
	derived := db.Schema.DerivedEdges()
	if len(derived) == 0 {
		t.Fatal("IMDB-lite schema should have FK-FK derived edges (5 fact tables share title.id)")
	}
	for _, e := range derived {
		if e.Left.Ref != e.Right.Ref {
			t.Fatalf("derived edge %v-%v does not share a referenced key",
				e.Left.QualifiedName(), e.Right.QualifiedName())
		}
		if e.Left.Table == e.Right.Table {
			t.Fatal("derived self-edge")
		}
	}
}

func TestDerivedGeneratorProducesFactFactJoins(t *testing.T) {
	db := testutil.TinyDB()
	g := NewGeneratorDerived(db, 171)
	factFact := false
	for i := 0; i < 60 && !factFact; i++ {
		q := g.Query(3)
		for _, j := range q.Joins {
			// a join where neither side is a primary key is fact-fact
			if j.Left.Ref != nil && j.Right.Ref != nil {
				factFact = true
			}
		}
	}
	if !factFact {
		t.Fatal("derived generator never produced a fact-to-fact join")
	}
}

func TestDerivedQueriesExecuteCorrectly(t *testing.T) {
	// Pipelined execution must agree with the independent bottom-up
	// collector on fact-fact join queries (brute force is quadratic in two
	// fact tables, so the collector is the reference here; the operators
	// themselves are brute-validated in the exec package).
	db := testutil.TinyDB()
	g := NewGeneratorDerived(db, 172)
	for i := 0; i < 8; i++ {
		q := g.Query(2)
		want, err := exec.RunCollect(&exec.Ctx{DB: db, Q: q}, exec.CanonicalPlan(q, q.AllTablesMask()))
		if err != nil {
			t.Fatal(err)
		}
		got, err := exec.RunBatch(&exec.Ctx{DB: db, Q: q}, exec.CanonicalPlan(q, q.AllTablesMask()))
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("derived-edge query: pipelined %d, collected %d for %s", got, want, q.SQL())
		}
	}
}

func TestPlainGeneratorUnchangedByDerivedOption(t *testing.T) {
	db := testutil.TinyDB()
	a := NewGenerator(db, 173).Queries(5, 3)
	b := NewGenerator(db, 173).Queries(5, 3)
	for i := range a {
		if a[i].SQL() != b[i].SQL() {
			t.Fatal("plain generator should stay deterministic")
		}
	}
	// derived generator has strictly more adjacency
	plain := NewGenerator(db, 1)
	derived := NewGeneratorDerived(db, 1)
	plainEdges, derivedEdges := 0, 0
	for i := range plain.adj {
		plainEdges += len(plain.adj[i])
		derivedEdges += len(derived.adj[i])
	}
	if derivedEdges <= plainEdges {
		t.Fatalf("derived adjacency (%d) should exceed plain (%d)", derivedEdges, plainEdges)
	}
}

func TestConnectedWithDerivedJoins(t *testing.T) {
	db := testutil.TinyDB()
	g := NewGeneratorDerived(db, 174)
	for i := 0; i < 20; i++ {
		q := g.Query(4)
		if !q.Connected(q.AllTablesMask()) {
			t.Fatalf("disconnected derived query %s", q.SQL())
		}
		_ = query.NewBitSet()
	}
}
