package dist

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/adt"
	"repro/internal/compat"
	"repro/internal/core"
	"repro/internal/telemetry"
)

// newSpanCluster builds a 3-site page cluster with the span plane
// armed through a flight recorder over its buffer.
func newSpanCluster(t *testing.T, dir string) *Cluster {
	t.Helper()
	fr := telemetry.NewFlightRecorder(telemetry.NewSpanBuffer(1024, 0), "test", dir)
	c, err := NewWithConfig(Config{
		Sites:      3,
		SampleSeed: 1,
		SampleRate: 1,
		Flight:     fr,
	})
	if err != nil {
		t.Fatal(err)
	}
	for id := core.ObjectID(1); id <= 6; id++ {
		if err := c.Register(id, adt.Page{}, compat.PageTable()); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// kinds returns the set of span kinds recorded for one transaction.
func kinds(sb *telemetry.SpanBuffer, txn uint64) map[telemetry.SpanKind]int {
	m := make(map[telemetry.SpanKind]int)
	for _, s := range sb.Snapshot() {
		if s.Txn == txn {
			m[s.Kind]++
		}
	}
	return m
}

// TestClusterSpans: a cross-site held transaction leaves a full causal
// chain — begin, per-site begins and requests, per-site holds, a
// decision, per-site releases — and completes into the exemplar store.
func TestClusterSpans(t *testing.T) {
	c := newSpanCluster(t, t.TempDir())
	t1, t2 := c.Begin(), c.Begin()
	if _, err := t1.Do(1, write(10)); err != nil {
		t.Fatal(err)
	}
	if _, err := t2.Do(1, write(11)); err != nil { // dep T2->T1 at site 1
		t.Fatal(err)
	}
	if _, err := t2.Do(2, write(22)); err != nil {
		t.Fatal(err)
	}
	if st, err := t2.Commit(); err != nil || st != core.PseudoCommitted {
		t.Fatalf("T2 commit = %v, %v", st, err)
	}
	if tc := t2.(*Txn).Trace(); !tc.Valid() || !tc.Sampled() {
		t.Fatalf("T2 trace context = %+v, want valid+sampled", tc)
	}
	if st, err := t1.Commit(); err != nil || st != core.Committed {
		t.Fatalf("T1 commit = %v, %v", st, err)
	}
	<-t2.Done()
	if err := t2.Err(); err != nil {
		t.Fatal(err)
	}

	k2 := kinds(c.Spans(), uint64(t2.ID()))
	if k2[telemetry.SpanBegin] == 0 || k2[telemetry.SpanRequest] == 0 {
		t.Fatalf("T2 missing begin/request spans: %v", k2)
	}
	if k2[telemetry.SpanHold] != 2 {
		t.Fatalf("T2 hold spans = %d, want 2 (both visited sites)", k2[telemetry.SpanHold])
	}
	if k2[telemetry.SpanDecide] != 1 {
		t.Fatalf("T2 decide spans = %d, want 1", k2[telemetry.SpanDecide])
	}
	if k2[telemetry.SpanRelease] != 2 {
		t.Fatalf("T2 release spans = %d, want 2", k2[telemetry.SpanRelease])
	}

	// Both terminal transactions completed into the exemplar store.
	ex := c.Spans().Exemplars()
	seen := make(map[uint64]bool)
	for _, e := range ex {
		seen[e.Txn] = true
	}
	if !seen[uint64(t1.ID())] || !seen[uint64(t2.ID())] {
		t.Fatalf("exemplars %v missing T1/T2", seen)
	}

	// TraceContextOf re-derives an unregistered id from the sampler.
	if tc := c.TraceContextOf(core.TxnID(9999)); !tc.Valid() {
		t.Fatal("TraceContextOf(9999) invalid — sampler re-derivation broken")
	}
}

// TestClusterSpansAbort: an aborted transaction's trace terminates
// with an abort span and still completes into the exemplar store.
func TestClusterSpansAbort(t *testing.T) {
	c := newSpanCluster(t, t.TempDir())
	t1 := c.Begin()
	if _, err := t1.Do(1, write(1)); err != nil {
		t.Fatal(err)
	}
	if err := t1.Abort(); err != nil {
		t.Fatal(err)
	}
	k := kinds(c.Spans(), uint64(t1.ID()))
	if k[telemetry.SpanAbort] == 0 {
		t.Fatalf("aborted T1 has no abort span: %v", k)
	}
}

// TestClusterFlightDump: the cluster's spans land in its flight
// recorder's window, which dumps a readable artifact.
func TestClusterFlightDump(t *testing.T) {
	dir := t.TempDir()
	c := newSpanCluster(t, dir)
	t1 := c.Begin()
	if _, err := t1.Do(1, write(10)); err != nil {
		t.Fatal(err)
	}
	if st, err := t1.Commit(); err != nil || st != core.Committed {
		t.Fatalf("commit = %v, %v", st, err)
	}
	fr := c.Flight()
	if fr == nil || fr.Spans() != c.Spans() || fr.Spans().Len() == 0 {
		t.Fatal("flight recorder window empty after a commit")
	}
	path, err := fr.Dump("test", "")
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Dir(path) != dir {
		t.Fatalf("dump landed in %s, want %s", filepath.Dir(path), dir)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) == 0 {
		t.Fatal("flight dump is empty")
	}
}

// TestConservationViolationDump: a decision resolved beyond the
// logged+adopted budget dumps the black box once, with the violating
// transaction and the excess in the dump's detail; a second violation
// writes nothing new.
func TestConservationViolationDump(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "flight")
	fr := telemetry.NewFlightRecorder(telemetry.NewSpanBuffer(256, 0), "coord", dir)
	c, err := NewWithConfig(Config{Sites: 2, FaultTolerant: true, SampleRate: 1, Flight: fr})
	if err != nil {
		t.Fatal(err)
	}
	for id := core.ObjectID(1); id <= 4; id++ {
		if err := c.Register(id, adt.Page{}, compat.PageTable()); err != nil {
			t.Fatal(err)
		}
	}
	// commitBothSites runs one two-site transaction: its commit decision
	// is logged, then resolved once both participants release.
	commitBothSites := func() core.TxnID {
		t.Helper()
		tx := c.Begin()
		if _, err := tx.Do(1, write(1)); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Do(2, write(2)); err != nil {
			t.Fatal(err)
		}
		if st, err := tx.Commit(); err != nil || st != core.Committed {
			t.Fatalf("commit = %v, %v", st, err)
		}
		return tx.ID()
	}
	c.tel.DecisionsResolved.Add(3) // resolutions nobody logged
	id := commitBothSites()        // logged 1, resolved 4: excess 3

	dumps, _ := filepath.Glob(filepath.Join(dir, "flight-*.json"))
	if len(dumps) != 1 {
		t.Fatalf("dumps after the violation = %v, want exactly one", dumps)
	}
	raw, err := os.ReadFile(dumps[0])
	if err != nil {
		t.Fatal(err)
	}
	var d telemetry.FlightDump
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	if d.Reason != "conservation-violation" {
		t.Errorf("reason = %q", d.Reason)
	}
	if !strings.Contains(d.Detail, fmt.Sprintf("txn %d ", id)) || !strings.HasSuffix(d.Detail, "by 3") {
		t.Errorf("detail = %q, want txn %d and excess 3", d.Detail, id)
	}
	if len(d.Spans) == 0 {
		t.Error("violation dump carries no spans")
	}

	commitBothSites() // still violating: no second dump
	if again, _ := filepath.Glob(filepath.Join(dir, "flight-*.json")); len(again) != 1 {
		t.Fatalf("second violation wrote a new dump: %v", again)
	}
}
