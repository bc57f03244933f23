package exec

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"github.com/lpce-db/lpce/internal/obs"
	"github.com/lpce-db/lpce/internal/plan"
	"github.com/lpce-db/lpce/internal/query"
	"github.com/lpce-db/lpce/internal/testutil"
	"github.com/lpce-db/lpce/internal/workload"
)

// The golden fixture pins everything the executor's cost model makes
// observable beyond the result itself: work totals, materialized-row
// totals, checkpoint sequences (node, cardinality, row contents in order),
// the order of the emitted rows, and the typed errors under budget,
// materialized-rows and re-optimization limits. It was recorded from the
// tuple-at-a-time Volcano executor that preceded the batch engine, over the
// equivalence corpus (generator seeds 41-44 and 46), and must never be
// regenerated from the batch path: matching it is what proves the batch
// engine kept the reference executor's accounting tuple for tuple. The
// file holds one JSON-encoded goldenRecord per line; the kinds appear in
// the order plain, budget, matlimit, reopt, trace.
const goldenPath = "testdata/scalar_golden.json"

// goldenRecord is one recorded execution. Case names the corpus kind, plan
// variant and limit; Query is the query's structural fingerprint. Rows is
// an order-sensitive hash of the emitted rows, Ckpts lists (mask,
// cardinality, row hash) per checkpoint, and Trace lists (mask, rows,
// actual rows) per traced operator, sorted by mask.
type goldenRecord struct {
	Case      string                   `json:"case"`
	Query     uint64                   `json:"query"`
	Count     int                      `json:"count,omitempty"`
	Rows      uint64                   `json:"rows,omitempty"`
	Err       string                   `json:"err,omitempty"`
	Work      int64                    `json:"work,omitempty"`
	MatRows   int64                    `json:"mat_rows,omitempty"`
	Ckpts     [][3]uint64              `json:"ckpts,omitempty"`
	TrueCards map[query.BitSet]float64 `json:"true_cards,omitempty"`
	Trace     [][3]float64             `json:"trace,omitempty"`
}

// goldenRunner executes one plan on the path being recorded or checked and
// returns its count, order-sensitive row hash and error. With wrapEven set
// it installs a pass-through ctx.Wrap shim on every operator covering an
// even number of tables.
type goldenRunner func(ctx *Ctx, p *plan.Node, wrapEven bool) (int, uint64, error)

// errKey renders an execution error as its typed identity: ErrBudget, or
// the payload of a *ResourceError or *ReoptSignal.
func errKey(err error) string {
	var re *ResourceError
	var sig *ReoptSignal
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrBudget):
		return "budget"
	case errors.As(err, &re):
		return fmt.Sprintf("resource %s limit=%d used=%d", re.Resource, re.Limit, re.Used)
	case errors.As(err, &sig):
		return fmt.Sprintf("reopt mask=%d actual=%d", sig.Node.Tables, sig.Actual)
	}
	return err.Error()
}

func ckptTriples(events []ckptEvent) [][3]uint64 {
	out := make([][3]uint64, len(events))
	for i, e := range events {
		out[i] = [3]uint64{uint64(e.mask), uint64(e.card), e.hash}
	}
	return out
}

func traceTriples(tr *obs.ExecTrace) [][3]float64 {
	out := make([][3]float64, len(tr.Ops))
	for i, op := range tr.Ops {
		out[i] = [3]float64{float64(op.Mask), float64(op.Rows), op.ActualRows}
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// goldenRecords runs one corpus sweep through run and records every
// observation the fixture pins.
func goldenRecords(t *testing.T, kind string, run goldenRunner) []goldenRecord {
	db := testutil.TinyDB()
	var recs []goldenRecord
	add := func(q *query.Query, r goldenRecord) {
		r.Query = q.Fingerprint()
		recs = append(recs, r)
	}
	switch kind {
	case "plain":
		equivCorpus(t, db, 41, 12, func(q *query.Query, p *plan.Node, variant string) {
			rc := &ckptRecorder{}
			ctx := &Ctx{DB: db, Q: q, Controller: rc}
			c, h, err := run(ctx, p, false)
			add(q, goldenRecord{
				Case: "plain/" + variant, Count: c, Rows: h, Err: errKey(err),
				Work: ctx.Work(), MatRows: ctx.MatRows(),
				Ckpts: ckptTriples(rc.events), TrueCards: trueCards(p),
			})
		})
	case "budget":
		equivCorpus(t, db, 42, 6, func(q *query.Query, p *plan.Node, variant string) {
			probe := &Ctx{DB: db, Q: q, Controller: NopController{}}
			_, _, err := run(probe, p.Clone(), false)
			total := probe.Work()
			add(q, goldenRecord{Case: "budget/" + variant + "/total", Work: total, Err: errKey(err)})
			for _, budget := range []int64{1, total / 4, total / 2, total - 1, total, total + 1} {
				if budget <= 0 {
					continue
				}
				rc := &ckptRecorder{}
				ctx := &Ctx{DB: db, Q: q, Controller: rc, Budget: budget}
				_, _, err := run(ctx, p.Clone(), false)
				add(q, goldenRecord{
					Case: fmt.Sprintf("budget/%s/%d", variant, budget),
					Err:  errKey(err), Ckpts: ckptTriples(rc.events),
				})
			}
		})
	case "matlimit":
		equivCorpus(t, db, 43, 6, func(q *query.Query, p *plan.Node, variant string) {
			probe := &Ctx{DB: db, Q: q, Controller: NopController{}}
			_, _, err := run(probe, p.Clone(), false)
			total := probe.MatRows()
			add(q, goldenRecord{Case: "matlimit/" + variant + "/total", MatRows: total, Err: errKey(err)})
			if total == 0 {
				return // plan materializes nothing; no limit to trip
			}
			for _, limit := range []int64{1, total / 2, total - 1, total, total + 1} {
				if limit <= 0 {
					continue
				}
				ctx := &Ctx{DB: db, Q: q, Controller: NopController{}, MaxMatRows: limit}
				_, _, err := run(ctx, p.Clone(), false)
				r := goldenRecord{
					Case: fmt.Sprintf("matlimit/%s/%d", variant, limit),
					Err:  errKey(err), MatRows: ctx.MatRows(),
				}
				// work is pinned only on success: at a mid-drain failure the
				// charged amount depends on the drain granularity
				if err == nil {
					r.Work = ctx.Work()
				}
				add(q, r)
			}
		})
	case "reopt":
		g := workload.NewGenerator(db, 44)
		tested := 0
		for i := 0; i < 20 && tested < 8; i++ {
			q := g.Query(2)
			p := CanonicalPlan(q, q.AllTablesMask())
			rc := &ckptRecorder{failAt: p.Left.Right.Tables} // first hash build to materialize
			_, _, err := run(&Ctx{DB: db, Q: q, Controller: rc}, p, false)
			add(q, goldenRecord{Case: "reopt", Err: errKey(err), Ckpts: ckptTriples(rc.events)})
			tested++
		}
	case "trace":
		equivCorpus(t, db, 46, 6, func(q *query.Query, p *plan.Node, variant string) {
			tr := &obs.ExecTrace{}
			ctx := &Ctx{DB: db, Q: q, Controller: NopController{}, Trace: tr}
			c, h, err := run(ctx, p, true)
			add(q, goldenRecord{
				Case: "trace/" + variant, Count: c, Rows: h, Err: errKey(err),
				Trace: traceTriples(tr),
			})
		})
	default:
		t.Fatalf("unknown golden kind %q", kind)
	}
	return recs
}

// checkGolden runs one corpus sweep through run, compares every record with
// the fixture, and returns the records.
func checkGolden(t *testing.T, kind string, run goldenRunner) []goldenRecord {
	t.Helper()
	data, err := os.ReadFile(filepath.FromSlash(goldenPath))
	if err != nil {
		t.Fatal(err)
	}
	var all []goldenRecord
	if err := json.Unmarshal(data, &all); err != nil {
		t.Fatal(err)
	}
	var want []goldenRecord
	for _, r := range all {
		if strings.HasPrefix(r.Case, kind+"/") || r.Case == kind {
			want = append(want, r)
		}
	}
	got := goldenRecords(t, kind, run)
	if len(want) == 0 {
		t.Fatalf("%s: fixture has no records", kind)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, fixture has %d", kind, len(got), len(want))
	}
	for i := range want {
		wj, _ := json.Marshal(want[i])
		gj, _ := json.Marshal(got[i])
		if string(wj) != string(gj) {
			t.Fatalf("%s record %d differs from the fixture:\n got  %s\n want %s", kind, i, gj, wj)
		}
	}
	return got
}
