package main

import (
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/adt"
	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

func TestPercentileNearestRank(t *testing.T) {
	var hundred []int64
	for i := int64(1); i <= 100; i++ {
		hundred = append(hundred, i)
	}
	for _, c := range []struct {
		xs   []int64
		p    float64
		want int64
		n    int
	}{
		{hundred, 50, 50, 100},
		{hundred, 99, 99, 100},
		{hundred, 100, 100, 100},
		{hundred, 0.5, 1, 100},
		{[]int64{3, 5, 7, 9}, 50, 5, 4},
		{[]int64{3, 5, 7, 9}, 51, 7, 4},
		{[]int64{42}, 99, 42, 1},
		{nil, 50, 0, 0},
	} {
		got, n := percentile(c.xs, c.p)
		if got != c.want || n != c.n {
			t.Errorf("percentile(%d samples, %g) = %d over %d, want %d over %d", len(c.xs), c.p, got, n, c.want, c.n)
		}
	}
	var thousand []int64
	for i := int64(1); i <= 1000; i++ {
		thousand = append(thousand, i)
	}
	if got := beyond(thousand, 99); got != 10 {
		t.Errorf("beyond p99 of 1000 samples = %d, want 10", got)
	}
	if got := beyond([]int64{1, 2, 2, 2}, 50); got != 0 {
		t.Errorf("beyond p50 with ties at the top = %d, want 0", got)
	}
}

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	parent := span{txn: 1, start: 0, end: 100, layer: layerDist, op: opCommit}
	children := []span{
		{txn: 1, start: 20, end: 40, layer: layerCore, op: opCommitHold},
		{txn: 1, start: 10, end: 30, layer: layerCore, op: opEdges},    // overlaps the first
		{txn: 1, start: 25, end: 35, layer: layerFault, op: opForce},   // inside both
		{txn: 1, start: 90, end: 120, layer: layerCore, op: opRelease}, // clipped to 90..100
		{txn: 1, start: 200, end: 300, layer: layerCore, op: opForget}, // outside
	}
	// Covered: 10..40 and 90..100, 40ns in all.
	if got := selfTime(parent, children); got != 60 {
		t.Errorf("self time = %d, want 60", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("self time without children = %d, want 100", got)
	}

	spans := append([]span{parent,
		{txn: 2, start: 0, end: 50, layer: layerDist, op: opCommit},
		{txn: 2, start: 0, end: 50, layer: layerDist, op: opDo}, // not a child: same layer
		{txn: 3, start: 0, end: 50, layer: layerCore, op: opRequest},
	}, children...)
	sum, n := selfSum(byTxn(spans), layerDist, opCommit)
	if sum != 60+50 || n != 2 {
		t.Errorf("selfSum = %d over %d spans, want 110 over 2", sum, n)
	}
}

func TestAttributionRemainder(t *testing.T) {
	groups := byTxn([]span{
		// Logical transaction A: one abort (id 1), then id 2 commits.
		{txn: 1, start: 0, end: 30, layer: layerDist, op: opDo},
		{txn: 1, start: 5, end: 15, layer: layerCore, op: opRequest},
		{txn: 2, start: 50, end: 90, layer: layerDist, op: opCommit},
		{txn: 2, start: 60, end: 70, layer: layerCore, op: opCommitHold},
		{txn: 2, start: 65, end: 75, layer: layerFault, op: opForce},
		{txn: 2, start: 100, end: 130, layer: layerCore, op: opRelease}, // after the wait ended
		// Logical transaction B: far slower, outside the p50 band.
		{txn: 3, start: 0, end: 1000, layer: layerDist, op: opDo},
	})
	records := []txnRecord{
		{ids: []core.TxnID{1, 2}, start: 0, end: 100},
		{ids: []core.TxnID{3}, start: 0, end: 1000},
	}
	lat := []int64{100, 100, 100, 1000}

	// In process every layer counts: 0..30 and 50..90 cover 70 of 100.
	all := func(span) bool { return true }
	got, n := attribution(records, lat, groups, all, 0)
	if n != 1 || math.Abs(got-0.3) > 1e-9 {
		t.Errorf("in-process attribution = %g over %d records, want 0.3 over 1", got, n)
	}
	// Over the wire only core and fault spans count (5..15, 60..75:
	// 25), plus the transport of each daemon round trip (request and
	// commit-hold; the release fell after the wait): 25 + 2*10 = 45.
	got, _ = attribution(records, lat, groups, isChild, 10)
	if math.Abs(got-0.55) > 1e-9 {
		t.Errorf("loopback attribution = %g, want 0.55", got)
	}
	// Explained time never exceeds the wait.
	if got, _ = attribution(records, lat, groups, isChild, 1000); got != 0 {
		t.Errorf("attribution with an oversized transport = %g, want 0", got)
	}
}

func TestHistQuantileInterpolates(t *testing.T) {
	var h telemetry.HistSnapshot
	h.Counts[11], h.Count = 4, 4 // values 1024..2047
	if got := histQuantile(h, 0.5); got != 1536 {
		t.Errorf("p50 = %g, want 1536 (halfway through bucket 1024..2048)", got)
	}
	if got := histQuantile(h, 1); got != 2048 {
		t.Errorf("p100 = %g, want the bucket's top 2048", got)
	}
}

// refusingStore refuses every other Begin (as a closed store does) and
// fails the Commit of every third transaction it admits.
type refusingStore struct{ n int }

func (s *refusingStore) Begin() core.Txn {
	s.n++
	if s.n%2 == 1 {
		return core.ClosedTxn(core.ErrClosed)
	}
	return &failingTxn{Txn: core.ClosedTxn(nil), fail: s.n%6 == 0}
}

type failingTxn struct {
	core.Txn
	fail bool
}

func (t *failingTxn) Do(core.ObjectID, adt.Op) (adt.Ret, error) { return adt.Ret{}, nil }

func (t *failingTxn) Commit() (core.CommitStatus, error) {
	if t.fail {
		return 0, errors.New("disk on fire")
	}
	return core.Committed, nil
}

func TestFailedFracCountsRefusedAndFailed(t *testing.T) {
	res := runLoad(loadConfig{
		store:    &refusingStore{},
		src:      workload.Source{Gen: workload.Pushes{DBSize: 4}, MinLen: 4, MaxLen: 12},
		seed:     1,
		clients:  1,
		duration: time.Minute,
		maxTxns:  12,
	}, time.Now())
	// Of 12 logical transactions, 6 are refused and 2 of the 6 admitted
	// fail at commit.
	if res.logical != 12 || res.failed != 8 || res.committed != 4 {
		t.Fatalf("logical %d failed %d committed %d, want 12, 8, 4", res.logical, res.failed, res.committed)
	}
	if got := failedFrac(res.failed, res.logical); math.Abs(got-8.0/12) > 1e-9 {
		t.Errorf("failed_frac = %g, want %g", got, 8.0/12)
	}
	if len(res.lat) != 4 {
		t.Errorf("%d commit-wait samples, want one per committed transaction (4)", len(res.lat))
	}
}
