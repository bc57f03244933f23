package main

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/lpce-db/lpce/internal/datagen"
	"github.com/lpce-db/lpce/internal/joblike"
	"github.com/lpce-db/lpce/internal/storage"
)

// testDB is a small database; the tests need its shape, not its size.
func testDB() *storage.Database { return datagen.Generate(datagen.Config{Titles: 80, Seed: 3}) }

func fingerprints(qs []serialQuery) []uint64 {
	out := make([]uint64, len(qs))
	for i, sq := range qs {
		out[i] = sq.q.Fingerprint()
	}
	return out
}

func TestSameSeedSameQueries(t *testing.T) {
	db := testDB()
	a, err := curateDeep(db, 7, 12)
	if err != nil {
		t.Fatal(err)
	}
	b, err := curateDeep(db, 7, 12)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fingerprints(a), fingerprints(b)) {
		t.Fatal("the same pool seed gave different deep queries")
	}
	for i := range a {
		if a[i].want != b[i].want {
			t.Fatalf("query %d: oracle counts %d and %d", i, a[i].want, b[i].want)
		}
		if j := a[i].q.NumJoins(); j < deepMinJoins || j > deepMaxJoins {
			t.Fatalf("query %d has %d joins", i, j)
		}
	}
	// The workload seed orders the pool, the same way every time.
	order := func(seed int64) []uint64 { return fingerprints(shuffledRound(a, rand.New(rand.NewSource(seed)))) }
	if !reflect.DeepEqual(order(5), order(5)) {
		t.Fatal("the same workload seed gave different orders")
	}
	if reflect.DeepEqual(order(5), order(6)) {
		t.Fatal("different workload seeds gave the same order")
	}
}

func TestSameSeedSameStatements(t *testing.T) {
	names := joblike.Names()
	stream := func(seed int64) []string {
		var out []string
		for _, c := range newServeClients(seed) {
			for i := 0; i < 3*len(names); i++ {
				out = append(out, c.nextStatement(names))
			}
		}
		return out
	}
	a := stream(4)
	if !reflect.DeepEqual(a, stream(4)) {
		t.Fatal("the same seed gave different statement streams")
	}
	// Each deck deals every statement once.
	seen := map[string]int{}
	for _, name := range a[:len(names)] {
		seen[name]++
	}
	if len(seen) != len(names) {
		t.Fatalf("a deck dealt %d distinct statements, want %d", len(seen), len(names))
	}
}

func TestSameSeedSameAppendedRows(t *testing.T) {
	db1, db2 := testDB(), testDB()
	writeProbe(db1, 9)
	writeProbe(db2, 9)
	grown := false
	for _, name := range factTables {
		t1, t2 := db1.TableByName(name), db2.TableByName(name)
		if !reflect.DeepEqual(t1.Cols, t2.Cols) {
			t.Fatalf("%s: the same seed appended different rows", name)
		}
		if !t1.Sealed() {
			t.Fatalf("%s: not re-sealed after the write", name)
		}
		grown = grown || t1.NumRows() > testDB().TableByName(name).NumRows()
	}
	if !grown {
		t.Fatal("the writes appended no rows")
	}
}
