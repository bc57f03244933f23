package main

import (
	"errors"
	"testing"
	"time"

	"github.com/lpce-db/lpce/internal/engine"
	"github.com/lpce-db/lpce/internal/exec"
	"github.com/lpce-db/lpce/internal/histogram"
)

func TestCorruptedCountIsAFailure(t *testing.T) {
	db := testDB()
	qs, err := curateDeep(db, 11, 3)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(db)
	cfg := engine.Config{Estimator: histogram.NewEstimator(db), Budget: queryBudget}

	var good tally
	runSerial(eng, cfg, qs, &good, nil)
	if good.failed != 0 || good.attempted != len(qs) || len(good.latMs) != len(qs) {
		t.Fatalf("correct counts: attempted %d, failed %d (%v)", good.attempted, good.failed, good.firstErr)
	}

	corrupt := append([]serialQuery(nil), qs...)
	corrupt[1].want++
	var bad tally
	runSerial(eng, cfg, corrupt, &bad, nil)
	if bad.failed != 1 || bad.attempted != len(qs) || len(bad.latMs) != len(qs)-1 {
		t.Fatalf("one corrupted count: attempted %d, failed %d", bad.attempted, bad.failed)
	}
	if bad.firstErr == nil {
		t.Fatal("the mismatch was not reported")
	}
}

func TestVerifyFailsErrorsAndTimeouts(t *testing.T) {
	if err := verify(5, false, nil, 5); err != nil {
		t.Fatalf("matching count failed: %v", err)
	}
	if err := verify(5, true, nil, 5); !errors.Is(err, errTimeout) {
		t.Fatalf("timeout = %v, want errTimeout", err)
	}
	boom := errors.New("boom")
	if err := verify(0, false, boom, 5); !errors.Is(err, boom) {
		t.Fatalf("query error = %v, want it passed on", err)
	}
	var tl tally
	tl.record(1, time.Millisecond, nil)
	tl.record(1, time.Millisecond, boom)
	if tl.attempted != 2 || tl.failed != 1 || !errors.Is(tl.firstErr, boom) {
		t.Fatalf("tally = %+v", tl)
	}
}

func TestExactCountRespectsBudget(t *testing.T) {
	db := testDB()
	qs, err := curateDeep(db, 11, 1)
	if err != nil {
		t.Fatal(err)
	}
	o := exec.NewTrueCardOracle(db)
	o.Budget = 1
	if _, err := exactCount(o, qs[0].q); !errors.Is(err, exec.ErrBudget) {
		t.Fatalf("exactCount over budget = %v, want ErrBudget", err)
	}
}
