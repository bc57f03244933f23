package main

import (
	"testing"
	"time"

	"github.com/lpce-db/lpce/internal/obs"
	"github.com/lpce-db/lpce/internal/query"
)

// handTrace is a hand-built attempt of the plan
//
//	HashJoin{0,1,2}
//	├── NestLoopJoin{0,1}
//	│   ├── SeqScan{0}
//	│   └── IndexScan{1}
//	└── SeqScan{2}
//
// in teardown order, with inclusive wall times in milliseconds.
func handTrace() []obs.OpStats {
	op := func(name string, mask query.BitSet, wallMs int, rows int64) obs.OpStats {
		return obs.OpStats{Op: name, Mask: mask, Wall: time.Duration(wallMs) * time.Millisecond, Rows: rows, ActualRows: float64(rows)}
	}
	return []obs.OpStats{
		op("SeqScan", 0b001, 10, 100),
		op("IndexScan", 0b010, 20, 50),
		op("NestLoopJoin", 0b011, 60, 40),
		op("SeqScan", 0b100, 15, 30),
		op("HashJoin", 0b111, 100, 12),
	}
}

func TestSelfTimesSubtractDirectChildren(t *testing.T) {
	got := selfTimes(handTrace())
	want := []time.Duration{10, 20, 30, 15, 25}
	var sum time.Duration
	for i := range want {
		want[i] *= time.Millisecond
		if got[i] != want[i] {
			t.Errorf("op %d self = %v, want %v", i, got[i], want[i])
		}
		sum += got[i]
	}
	if sum != 100*time.Millisecond {
		t.Errorf("self times sum to %v, want the root's inclusive 100ms", sum)
	}
}

func TestLayersSelfTimeWithinExecTime(t *testing.T) {
	qt := &obs.QueryTrace{ExecTime: 104 * time.Millisecond}
	qt.NewRound().Ops = handTrace()
	l := newLayers()
	l.add(qt)
	m := metricSet{}
	l.metrics(m)
	var self float64
	for _, op := range opNames {
		self += m["exec.self_ms."+op].Value
	}
	if self != 100 || self > m["exec.ms"].Value {
		t.Errorf("self times sum to %gms, want 100ms within exec.ms %gms", self, m["exec.ms"].Value)
	}
	if got := m["exec.self_ms.SeqScan"].Value; got != 25 {
		t.Errorf("SeqScan self = %gms, want 25ms over both scans", got)
	}
	if got := m["exec.rows.SeqScan"].Value; got != 130 {
		t.Errorf("SeqScan rows = %g, want 130", got)
	}
}
