package joblike

import (
	"testing"

	"github.com/lpce-db/lpce/internal/exec"
	"github.com/lpce-db/lpce/internal/histogram"
	"github.com/lpce-db/lpce/internal/optimizer"
	"github.com/lpce-db/lpce/internal/testutil"
)

func TestAllQueriesParse(t *testing.T) {
	db := testutil.TinyDB()
	qs, err := Queries(db.Schema)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != len(SQL) {
		t.Fatalf("parsed %d of %d queries", len(qs), len(SQL))
	}
	for name, q := range qs {
		if !q.Connected(q.AllTablesMask()) {
			t.Fatalf("query %s is disconnected", name)
		}
	}
}

func TestNamesStable(t *testing.T) {
	a, b := Names(), Names()
	if len(a) != len(SQL) {
		t.Fatalf("names = %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Names not stable")
		}
		if i > 0 && a[i-1] >= a[i] {
			t.Fatal("Names not sorted")
		}
	}
}

func TestFamiliesCoverJoinDepths(t *testing.T) {
	db := testutil.TinyDB()
	qs, err := Queries(db.Schema)
	if err != nil {
		t.Fatal(err)
	}
	depths := map[int]bool{}
	for _, q := range qs {
		depths[q.NumJoins()] = true
	}
	for _, want := range []int{1, 2, 4, 7} {
		if !depths[want] {
			t.Fatalf("suite missing a %d-join query (have %v)", want, depths)
		}
	}
}

func TestSuiteExecutes(t *testing.T) {
	db := testutil.TinyDB()
	qs, err := Queries(db.Schema)
	if err != nil {
		t.Fatal(err)
	}
	opt := optimizer.New(db, histogram.NewEstimator(db))
	for _, name := range Names() {
		q := qs[name]
		p, _, err := opt.Plan(q)
		if err != nil {
			t.Fatalf("%s: plan: %v", name, err)
		}
		ctx := &exec.Ctx{DB: db, Q: q, Budget: 200_000_000}
		got, err := exec.RunBatch(ctx, p)
		if err != nil {
			t.Fatalf("%s: run: %v", name, err)
		}
		want, err := exec.RunCollect(&exec.Ctx{DB: db, Q: q, Budget: 200_000_000},
			exec.CanonicalPlan(q, q.AllTablesMask()))
		if err != nil {
			t.Fatalf("%s: collect: %v", name, err)
		}
		if got != want {
			t.Fatalf("%s: optimized plan returned %d, reference %d", name, got, want)
		}
	}
}

func TestFactFactFamilyHasNoPKSide(t *testing.T) {
	db := testutil.TinyDB()
	qs, err := Queries(db.Schema)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"4a", "4b", "4c"} {
		for _, j := range qs[name].Joins {
			if j.Left.Ref == nil || j.Right.Ref == nil {
				t.Fatalf("%s: expected FK-FK join, got %s", name, j)
			}
		}
	}
}
