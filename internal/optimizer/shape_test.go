package optimizer

import (
	"testing"

	"github.com/lpce-db/lpce/internal/exec"
	"github.com/lpce-db/lpce/internal/plan"
	"github.com/lpce-db/lpce/internal/testutil"
	"github.com/lpce-db/lpce/internal/workload"
)

func TestLeftDeepShapeEnforced(t *testing.T) {
	db := testutil.TinyDB()
	o := oracleOpt(db)
	o.Shape = ShapeLeftDeep
	g := workload.NewGenerator(db, 181)
	for i := 0; i < 10; i++ {
		q := g.Query(3 + i%3)
		p, _, err := o.Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		p.Walk(func(n *plan.Node) {
			if n.Op.IsJoin() && !n.Right.IsLeaf() {
				t.Fatalf("left-deep plan has a composite right child:\n%s", p)
			}
		})
		// correctness preserved
		got, err := exec.RunBatch(&exec.Ctx{DB: db, Q: q}, p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := exec.RunCollect(&exec.Ctx{DB: db, Q: q}, exec.CanonicalPlan(q, q.AllTablesMask()))
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("left-deep plan wrong: %d vs %d", got, want)
		}
	}
}

func TestBushyAtLeastAsCheapAsLeftDeep(t *testing.T) {
	// The bushy space strictly contains the left-deep space, so with the
	// same (oracle) estimates the bushy optimum can never cost more.
	db := testutil.TinyDB()
	bushy := oracleOpt(db)
	leftDeep := oracleOpt(db)
	leftDeep.Shape = ShapeLeftDeep
	g := workload.NewGenerator(db, 182)
	for i := 0; i < 10; i++ {
		q := g.Query(4)
		pb, _, err := bushy.Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		pl, _, err := leftDeep.Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		if pb.EstCost > pl.EstCost+1e-9 {
			t.Fatalf("bushy optimum (%v) costs more than left-deep (%v)", pb.EstCost, pl.EstCost)
		}
	}
}
