package main

import (
	"math/rand"
	"time"

	"github.com/lpce-db/lpce/internal/maintain"
	"github.com/lpce-db/lpce/internal/storage"
)

// factTables receive the appended rows. Their columns only reference
// other tables, so copies of existing rows keep every foreign key valid.
var factTables = []string{"movie_companies", "movie_info", "movie_info_idx", "movie_keyword", "cast_info"}

// writeTimes is the duration of one write's two steps.
type writeTimes struct {
	append, refresh time.Duration
}

// appendBatch returns the rows one write appends to t: copies of a seeded
// 0.5–1% of its rows, picked at random.
func appendBatch(t *storage.Table, rng *rand.Rand) [][]int64 {
	n := t.NumRows()
	k := n/200 + rng.Intn(n/200+1)
	rows := make([][]int64, k)
	for i := range rows {
		src := rng.Intn(n)
		row := make([]int64, len(t.Cols))
		for c := range row {
			row[c] = t.Cols[c][src]
		}
		rows[i] = row
	}
	return rows
}

// write appends a seeded batch to every fact table through
// maintain.AppendRows, then re-seals and re-analyzes through
// maintain.RefreshStats. Building the batches is not timed. The caller
// must hold off every reader while it runs.
func write(db *storage.Database, rng *rand.Rand) writeTimes {
	tables := make([]*storage.Table, len(factTables))
	batches := make([][][]int64, len(factTables))
	for i, name := range factTables {
		tables[i] = db.TableByName(name)
		batches[i] = appendBatch(tables[i], rng)
	}
	var w writeTimes
	start := time.Now()
	for i, t := range tables {
		maintain.AppendRows(t, batches[i])
	}
	w.append = time.Since(start)
	start = time.Now()
	maintain.RefreshStats(db)
	w.refresh = time.Since(start)
	return w
}

// writeProbeRuns is how many writes the read-only workloads make after
// their timed passes.
const writeProbeRuns = 25

// writeProbe measures writes on a read-only workload's database once its
// passes are over, so every workload reports the write path.
func writeProbe(db *storage.Database, seed int64) []writeTimes {
	rng := rand.New(rand.NewSource(seed))
	ws := make([]writeTimes, writeProbeRuns)
	for i := range ws {
		ws[i] = write(db, rng)
	}
	return ws
}
