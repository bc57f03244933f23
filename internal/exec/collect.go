package exec

import (
	"fmt"
	"sync"

	"github.com/lpce-db/lpce/internal/plan"
	"github.com/lpce-db/lpce/internal/query"
	"github.com/lpce-db/lpce/internal/storage"
)

// RunCollect executes the plan bottom-up, materializing every operator's
// output and stamping TrueCard on every node. This is the training-sample
// collector (the paper obtains per-node cardinalities via EXPLAIN ANALYZE);
// joins always run hashed since cardinalities do not depend on the physical
// operator. It returns the root cardinality; a root join only counts its
// output rows (charging the same work) instead of materializing them.
func RunCollect(ctx *Ctx, root *plan.Node) (int, error) {
	if root.IsLeaf() {
		rows, err := collect(ctx, root)
		return len(rows), err
	}
	l, r, err := collectChildren(ctx, root)
	if err != nil {
		return 0, err
	}
	_, n, err := collectJoin(ctx, root, l, r, false)
	return n, err
}

func collect(ctx *Ctx, n *plan.Node) ([][]int64, error) {
	switch {
	case n.Op == plan.MatScan:
		n.TrueCard = float64(n.Mat.Card())
		return n.Mat.Rows, nil
	case n.IsLeaf():
		return collectScan(ctx, n)
	default:
		l, r, err := collectChildren(ctx, n)
		if err != nil {
			return nil, err
		}
		rows, _, err := collectJoin(ctx, n, l, r, true)
		return rows, err
	}
}

func collectChildren(ctx *Ctx, n *plan.Node) (l, r [][]int64, err error) {
	if l, err = collect(ctx, n.Left); err != nil {
		return nil, nil, err
	}
	if r, err = collect(ctx, n.Right); err != nil {
		return nil, nil, err
	}
	return l, r, nil
}

func collectScan(ctx *Ctx, n *plan.Node) ([][]int64, error) {
	t := ctx.DB.Table(n.Table)
	var out [][]int64
	nrows := t.NumRows()
	width := len(t.Meta.Columns)
	for r := 0; r < nrows; r++ {
		if err := ctx.charge(1); err != nil {
			return nil, err
		}
		if !rowMatches(t, r, n.Preds) {
			continue
		}
		row := make([]int64, width)
		for c := 0; c < width; c++ {
			row[c] = t.Cols[c][r]
		}
		out = append(out, row)
	}
	n.TrueCard = float64(len(out))
	return out, nil
}

// collectJoin hash-joins two materialized inputs and stamps the node's
// TrueCard. It returns the output rows when keep is set, and always their
// count.
func collectJoin(ctx *Ctx, n *plan.Node, left, right [][]int64, keep bool) ([][]int64, int, error) {
	conds, err := resolveConds(ctx, n.JoinConds, n.Left.Tables, n.Right.Tables)
	if err != nil {
		return nil, 0, err
	}
	merge := newJoinMerge(ctx, n.Left.Tables, n.Right.Tables)

	// build on the smaller side for speed; swap offsets if we build left
	build, probe := right, left
	buildRight := true
	if len(left) < len(right) {
		build, probe = left, right
		buildRight = false
	}
	table := make(map[uint64][][]int64, len(build))
	key := make([]int64, len(conds))
	for _, row := range build {
		for i, c := range conds {
			if buildRight {
				key[i] = row[c.rightOff]
			} else {
				key[i] = row[c.leftOff]
			}
		}
		k := hashKey(key)
		table[k] = append(table[k], row)
		if err := ctx.charge(1); err != nil {
			return nil, 0, err
		}
	}
	var out [][]int64
	count := 0
	for _, row := range probe {
		for i, c := range conds {
			if buildRight {
				key[i] = row[c.leftOff]
			} else {
				key[i] = row[c.rightOff]
			}
		}
		if err := ctx.charge(1); err != nil {
			return nil, 0, err
		}
		for _, m := range table[hashKey(key)] {
			if err := ctx.charge(1); err != nil {
				return nil, 0, err
			}
			l, r := row, m
			if !buildRight {
				l, r = m, row
			}
			match := true
			for _, c := range conds {
				if l[c.leftOff] != r[c.rightOff] {
					match = false
					break
				}
			}
			if !match {
				continue
			}
			// width-weighted charge: the budget bounds buffered memory
			if err := ctx.charge(int64(merge.width) / 4); err != nil {
				return nil, 0, err
			}
			count++
			if keep {
				out = append(out, merge.merge(nil, l, r))
			}
		}
	}
	n.TrueCard = float64(count)
	return out, count, nil
}

// TrueCardOracle computes exact cardinalities for arbitrary table subsets
// of a query by *pipelined* execution of the canonical left-deep plan —
// only single-table hash builds are buffered, so memory stays bounded even
// for huge results; a work budget bounds time. It is the ground-truth
// estimator in accuracy experiments and tests. Results are memoized per
// (query, subset); the memo is mutex-guarded, so one oracle may be shared
// across concurrent workload workers.
type TrueCardOracle struct {
	DB *storage.Database
	// Budget bounds the work per exact count; zero means unlimited.
	// Experiment harnesses use TryEstimate with a budget to curate test
	// queries whose true cardinality is computable (the paper analogously
	// selects test queries by their PostgreSQL execution time).
	Budget int64

	mu    sync.RWMutex
	cache map[oracleKey]float64
}

type oracleKey struct {
	q    *query.Query
	mask query.BitSet
}

// NewTrueCardOracle returns an unbounded oracle over db.
func NewTrueCardOracle(db *storage.Database) *TrueCardOracle {
	return &TrueCardOracle{DB: db, cache: make(map[oracleKey]float64)}
}

// Name implements the estimator interface.
func (o *TrueCardOracle) Name() string { return "oracle" }

// TryEstimate returns the exact cardinality of joining the subset, or
// ErrBudget when the count is not computable within the oracle's budget.
func (o *TrueCardOracle) TryEstimate(q *query.Query, mask query.BitSet) (float64, error) {
	k := oracleKey{q, mask}
	o.mu.RLock()
	v, ok := o.cache[k]
	o.mu.RUnlock()
	if ok {
		return v, nil
	}
	// compute outside the lock: exact counts are deterministic, so racing
	// duplicates write the same value
	node := CanonicalPlan(q, mask)
	ctx := &Ctx{DB: o.DB, Q: q, Budget: o.Budget}
	count, err := RunBatch(ctx, node)
	if err != nil {
		return 0, err
	}
	v = float64(count)
	o.mu.Lock()
	o.cache[k] = v
	o.mu.Unlock()
	return v, nil
}

// EstimateSubset returns the exact cardinality of joining the subset,
// panicking if the oracle's budget is exceeded (callers curate queries via
// TryEstimate first).
func (o *TrueCardOracle) EstimateSubset(q *query.Query, mask query.BitSet) float64 {
	v, err := o.TryEstimate(q, mask)
	if err != nil {
		panic(fmt.Sprintf("exec: oracle failed: %v", err))
	}
	return v
}

// CanonicalPlan builds the canonical left-deep logical plan for a table
// subset: relations joined in ascending local-index order, each new
// relation attached with every join condition it shares with the prefix.
// The learned estimators featurize subsets through this same canonical
// shape, so one subset always maps to one feature sequence.
func CanonicalPlan(q *query.Query, mask query.BitSet) *plan.Node {
	idxs := mask.Indices()
	if len(idxs) == 0 {
		panic("exec: canonical plan of empty subset")
	}
	mk := func(i int) *plan.Node {
		t := q.Tables[i]
		return plan.NewLeaf(plan.SeqScan, t, i, q.PredsOn(t))
	}
	cur := mk(idxs[0])
	covered := query.NewBitSet().Set(idxs[0])
	remaining := append([]int(nil), idxs[1:]...)
	for len(remaining) > 0 {
		// pick the lowest-index remaining table connected to the prefix, so
		// the canonical tree never contains cross products when the subset
		// is connected
		pick := -1
		for pi, i := range remaining {
			single := query.NewBitSet().Set(i)
			if len(q.JoinsBetween(covered, single)) > 0 {
				pick = pi
				break
			}
		}
		if pick == -1 {
			pick = 0 // disconnected subset: accept a cross join
		}
		i := remaining[pick]
		remaining = append(remaining[:pick], remaining[pick+1:]...)
		single := query.NewBitSet().Set(i)
		conds := q.JoinsBetween(covered, single)
		cur = plan.NewJoin(plan.HashJoin, cur, mk(i), conds)
		covered = covered.Set(i)
	}
	return cur
}

// hashKey mixes the join-key values of a tuple into a single hash; matches
// are verified value-by-value so collisions only cost time.
func hashKey(vals []int64) uint64 {
	var h uint64 = 14695981039346656037
	for _, v := range vals {
		h ^= uint64(v)
		h *= 1099511628211
	}
	return h
}
