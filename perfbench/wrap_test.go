package main

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/fault"
	"repro/internal/workload"
)

func TestSiteWrapperForwardsCrashRestarter(t *testing.T) {
	tr := newTracer(1)
	crash, err := fault.New(core.Options{}, fault.NewMemLog())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		inner dist.SiteBackend
		cr    bool
	}{
		{"scheduler", core.NewScheduler(core.Options{}), false},
		{"crashable", crash, true},
	} {
		if _, cr := wrapSite(c.inner, tr).(dist.CrashRestarter); cr != c.cr {
			t.Errorf("%s: wrapper has CrashRestarter=%v, want %v", c.name, cr, c.cr)
		}
	}
}

func TestResetDropsEarlierCalls(t *testing.T) {
	tr := newTracer(1)
	w := wrapSite(core.NewScheduler(core.Options{}), tr)
	if err := w.Begin(1); err != nil {
		t.Fatal(err)
	}
	tr.reset()
	if err := w.Begin(2); err != nil {
		t.Fatal(err)
	}
	spans, totals, _ := tr.collect()
	if n := totals[layerCore][opCoreBegin].n; n != 1 || len(spans) != 1 || spans[0].txn != 2 {
		t.Errorf("after reset: %d begins, spans %+v; want only transaction 2", n, spans)
	}
}

// TestWrappedClusterMatchesBare drives one client with a fixed seed over
// a bare deployment and a traced one: the wrappers must not change
// what the program does.
func TestWrappedClusterMatchesBare(t *testing.T) {
	for _, name := range []string{"partitioned-rw", "hot-pushes"} {
		s := specByName(name)
		var stats [2]core.Stats
		var fast, conv, logged [2]uint64
		var forced uint64
		for i, traced := range []bool{false, true} {
			var tr *tracer
			if traced {
				tr = newTracer(1)
			}
			d, err := s.deploy(s, tr)
			if err != nil {
				t.Fatal(err)
			}
			res := runLoad(loadConfig{
				store:     d.store,
				src:       workload.Source{Gen: s.gen, MinLen: 4, MaxLen: 12},
				seed:      42,
				clients:   1,
				duration:  time.Minute,
				maxTxns:   3000,
				retryHeld: s.retryHeld,
			}, time.Now())
			if probs := check(s, d, &res, minSamples); len(probs) > 0 {
				t.Errorf("%s traced=%v: %v", name, traced, probs)
			}
			tel := d.cluster.Telemetry()
			stats[i], fast[i], conv[i], logged[i] = d.cluster.Stats(), tel.FastCommits.Load(), tel.Conversations.Load(), tel.DecisionsLogged.Load()
			if traced {
				_, totals, _ := tr.collect()
				forced = totals[layerFault][opForce].n
				if totals[layerCore][opRequest].n == 0 {
					t.Errorf("%s: traced run timed no scheduler requests", name)
				}
			}
			d.close()
		}
		if stats[0] != stats[1] {
			t.Errorf("%s: Stats differ:\n bare    %+v\n wrapped %+v", name, stats[0], stats[1])
		}
		if fast[0] != fast[1] || conv[0] != conv[1] {
			t.Errorf("%s: fast commits %d/%d, conversations %d/%d (bare/wrapped)", name, fast[0], fast[1], conv[0], conv[1])
		}
		if logged[0] != logged[1] || forced != logged[1] {
			t.Errorf("%s: decisions logged %d/%d (bare/wrapped), wrapped log forced %d ids", name, logged[0], logged[1], forced)
		}
		if s.pushes && logged[1] == 0 {
			t.Errorf("%s: no decision was forced; the log path went unexercised", name)
		}
	}
}
