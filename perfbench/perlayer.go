package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// siteVerbs are the coordinator-to-daemon verbs on the transaction
// path, named as wire.KindName prints them.
var siteVerbs = []string{"begin", "request", "commit", "commit-hold", "release", "abort"}

// counters is a snapshot of the program's own instruments.
type counters struct {
	stats                       core.Stats
	fast, conv, sheds           uint64
	hold, decide, release       telemetry.HistSnapshot
	wave, cycleCost, chainDepth telemetry.HistSnapshot
	framesOut, framesIn         uint64
	bytesOut, bytesIn           uint64
	rtt                         map[string]telemetry.HistSnapshot
}

func snapshot(d *deployment) counters {
	t := d.cluster.Telemetry()
	c := counters{
		stats:      d.stats(),
		fast:       t.FastCommits.Load(),
		conv:       t.Conversations.Load(),
		sheds:      t.Sheds.Load(),
		hold:       t.HoldNanos.Snapshot(),
		decide:     t.DecideNanos.Snapshot(),
		release:    t.ReleaseNanos.Snapshot(),
		wave:       t.WaveSize.Snapshot(),
		cycleCost:  t.Mirror.CycleCost.Snapshot(),
		chainDepth: t.Mirror.ChainDepth.Snapshot(),
		rtt:        map[string]telemetry.HistSnapshot{},
	}
	if w := d.wire; w != nil {
		c.framesOut, c.framesIn = w.FramesOut.Load(), w.FramesIn.Load()
		c.bytesOut, c.bytesIn = w.BytesOut.Load(), w.BytesIn.Load()
		w.EachRTT(func(kind byte, s telemetry.HistSnapshot) { c.rtt[wire.KindName(kind)] = s })
	}
	return c
}

// perLayer runs the workload untraced, then traced, each on a fresh
// deployment for half the time or the workload's transaction cap,
// whichever ends first, so the two runs do the same work and their
// throughputs give the tracing overhead. Every layer's metrics come
// from the traced run's spans and the program's counters.
func perLayer(s *spec, seed int64, dur time.Duration) ([]metric, uint64, uint64, []string, error) {
	half := dur / 2
	d, err := s.deploy(s, nil)
	if err != nil {
		return nil, 0, 0, nil, fmt.Errorf("set up %s: %w", s.name, err)
	}
	cfg := loadFor(s, d, seed, half)
	cfg.maxTxns = s.maxTraced
	bare := runLoad(cfg, time.Now())
	problems := check(s, d, &bare, len(bare.lat))
	d.close()
	bareTPS := float64(bare.committed) / bare.elapsed.Seconds()
	attempted, failed := bare.logical, bare.failed
	bare = loadResult{}
	runtime.GC()

	tr := newTracer(s.every)
	if d, err = s.deploy(s, tr); err != nil {
		return nil, 0, 0, nil, fmt.Errorf("set up traced %s: %w", s.name, err)
	}
	defer d.close()
	// Set-up (the pre-fill) ran through the wrapped backends: the spans
	// and totals, like the counters, cover the measured run alone.
	tr.reset()
	before := snapshot(d)
	cfg = loadFor(s, d, seed, half)
	cfg.maxTxns, cfg.tr = s.maxTraced, tr
	res := runLoad(cfg, tr.epoch)
	after := snapshot(d)
	spans, totals, calls := tr.collect()
	problems = append(problems, check(s, d, &res, len(res.lat))...)
	tracedTPS := float64(res.committed) / res.elapsed.Seconds()

	groups := byTxn(spans)
	fmt.Printf("# traced: %d logical transactions over %s, %d sampled spans (1 transaction id in %d), %d attributable records\n",
		res.logical, res.elapsed.Round(time.Millisecond), len(spans), s.every, len(res.records))

	committed := float64(res.committed)
	perTxn := func(x float64) float64 { return ratio(x, committed) }
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	pct := func(xs []int64, p float64) int64 { v, _ := percentile(xs, p); return v }
	st := diffStats(after.stats, before.stats)

	var ms []metric
	add := func(name string, v float64, unit string) { ms = append(ms, metric{name, v, unit}) }

	// core: every participant call, timed at the backend.
	req := durations(spans, layerCore, opRequest)
	var coreNS uint64
	for _, t := range totals[layerCore] {
		coreNS += t.ns
	}
	add("core.request.p50_ns", float64(pct(req, 50)), "ns")
	add("core.request.p99_ns", float64(pct(req, 99)), "ns")
	add("core.request.busy_us_per_txn", perTxn(float64(totals[layerCore][opRequest].ns)/1e3), "us")
	add("core.commit.p50_ns", float64(pct(durations(spans, layerCore, opCoreCommit), 50)), "ns")
	add("core.commit_hold.p50_ns", float64(pct(durations(spans, layerCore, opCommitHold), 50)), "ns")
	add("core.release.p50_ns", float64(pct(durations(spans, layerCore, opRelease), 50)), "ns")
	add("core.edges.p50_ns", float64(pct(durations(spans, layerCore, opEdges), 50)), "ns")
	add("core.busy_frac", ratio(float64(coreNS), float64(res.elapsed.Nanoseconds())*numSites), "1")
	add("core.block_frac", ratio(float64(st.Blocks), float64(st.Executes+st.Blocks)), "1")
	add("core.commit_dep_edges_per_txn", perTxn(float64(st.CommitDepEdges)), "count")
	add("core.cycle_checks_per_op", ratio(float64(st.CycleChecks), float64(st.Executes)), "count")
	add("core.abort_frac", ratio(float64(st.Aborts), float64(st.Commits+st.Aborts)), "1")

	// dist (in process) or wire (loopback): the client's calls, with
	// self time net of the same transaction's core and fault calls.
	// Unsampled calls are accounted for by scaling the sampled self
	// time by all calls over sampled calls.
	clientMetrics := func(prefix string, l layer, selfTime bool) {
		for _, c := range []struct {
			o    op
			name string
		}{{opDo, "do"}, {opCommit, "commit"}} {
			ds := durations(spans, l, c.o)
			add(prefix+c.name+".p50_us", us(pct(ds, 50)), "us")
			add(prefix+c.name+".p99_us", us(pct(ds, 99)), "us")
			if selfTime {
				sum, n := selfSum(groups, l, c.o)
				scale := ratio(float64(totals[l][c.o].n), float64(n))
				add(prefix+c.name+".self_us_per_txn", perTxn(float64(sum)*scale/1e3), "us")
			}
		}
	}
	clientMetrics("dist.", layerDist, true)
	add("dist.fast_commit_frac", ratio(float64(after.fast-before.fast), float64(after.fast-before.fast+after.conv-before.conv)), "1")
	add("dist.held_frac", perTxn(float64(res.pseudo)), "1")
	add("dist.held_peak", float64(d.cluster.PolicyStats().HeldPeak), "count")
	add("dist.attempts_per_commit", perTxn(float64(res.attempts)), "count")
	add("dist.sheds_per_ktxn", perTxn(float64(after.sheds-before.sheds)*1e3), "count")
	add("dist.wave_width.mean", histDelta(after.wave, before.wave).Mean(), "count")
	add("dist.hold.p50_us", histQuantile(histDelta(after.hold, before.hold), 0.5)/1e3, "us")
	add("dist.decide.p50_us", histQuantile(histDelta(after.decide, before.decide), 0.5)/1e3, "us")
	add("dist.release.p50_us", histQuantile(histDelta(after.release, before.release), 0.5)/1e3, "us")

	// fault: decision-log calls.
	forces := sortedInts(calls[opForce])
	add("fault.forces_per_ktxn", perTxn(float64(len(forces))*1e3), "count")
	add("fault.ids_per_force", ratio(float64(totals[layerFault][opForce].n), float64(len(forces))), "count")
	add("fault.force.p50_us", us(pct(forces, 50)), "us")
	add("fault.force.p99_us", us(pct(forces, 99)), "us")
	add("fault.truncate.p50_us", us(pct(sortedInts(calls[opTruncate]), 50)), "us")

	// depgraph: the mirror's own counters (it has no public seam).
	add("depgraph.cycle_cost.mean_nodes", histDelta(after.cycleCost, before.cycleCost).Mean(), "count")
	add("depgraph.chain_depth.p99", histQuantile(histDelta(after.chainDepth, before.chainDepth), 0.99), "count")

	// wire: the client's round trips to the coordinator, and the
	// coordinator's per-verb round trips to the daemons, whose transport
	// share is the round trip minus the daemon's scheduler time.
	clientMetrics("wire.", layerWire, false)
	var rttNS, rttN float64
	for verb, snap := range after.rtt {
		h := histDelta(snap, before.rtt[verb])
		rttNS += float64(h.Sum)
		rttN += float64(h.Count)
	}
	for _, verb := range siteVerbs {
		add("wire.site_rtt."+verb+".p50_us", histQuantile(histDelta(after.rtt[verb], before.rtt[verb]), 0.5)/1e3, "us")
	}
	// Forget is one-way: its scheduler time is inside no round trip.
	daemonNS := float64(coreNS - totals[layerCore][opForget].ns)
	transport := 0.0
	if d.wire != nil {
		transport = ratio(rttNS-daemonNS, rttN)
	}
	add("wire.site_transport_us_per_op", transport/1e3, "us")
	add("wire.frames_per_txn", perTxn(float64(after.framesOut-before.framesOut+after.framesIn-before.framesIn)), "count")
	add("wire.bytes_per_txn", perTxn(float64(after.bytesOut-before.bytesOut+after.bytesIn-before.bytesIn)), "B")

	// Attribution of the p50 commit wait. In process every client call
	// is a dist span, so all layers count. Over loopback the client's
	// span is the envelope to explain: core and fault spans count, and
	// each daemon round trip adds the measured transport per op; the
	// client-to-coordinator hop and the coordinator's own work are what
	// stays unattributed.
	counted := func(span) bool { return true }
	if d.wire != nil {
		counted = isChild
	}
	unattr, band := attribution(res.records, res.lat, groups, counted, transport)
	fmt.Printf("# attribution: %d records in the p45..p55 band; %.1f%% of the p50 commit wait attributed (goal: 90%%)\n", band, 100*(1-unattr))
	add("attr.unattributed_frac", unattr, "1")
	add("trace.overhead_frac", 1-ratio(tracedTPS, bareTPS), "1")
	fmt.Printf("# untraced %.0f txn/s, traced %.0f txn/s\n", bareTPS, tracedTPS)
	return ms, attempted + res.logical, failed + res.failed, problems, nil
}

// diffStats is what the schedulers counted between two snapshots.
func diffStats(a, b core.Stats) core.Stats {
	return core.Stats{
		Executes:       a.Executes - b.Executes,
		Blocks:         a.Blocks - b.Blocks,
		Grants:         a.Grants - b.Grants,
		Aborts:         a.Aborts - b.Aborts,
		DeadlockAborts: a.DeadlockAborts - b.DeadlockAborts,
		CycleAborts:    a.CycleAborts - b.CycleAborts,
		Withdrawals:    a.Withdrawals - b.Withdrawals,
		Commits:        a.Commits - b.Commits,
		PseudoCommits:  a.PseudoCommits - b.PseudoCommits,
		CycleChecks:    a.CycleChecks - b.CycleChecks,
		CommitDepEdges: a.CommitDepEdges - b.CommitDepEdges,
		WaitForEdges:   a.WaitForEdges - b.WaitForEdges,
	}
}
