package main

import (
	"fmt"
	"time"

	"repro/internal/adt"
	"repro/internal/core"
	"repro/internal/history"
)

// check verifies a drained run's outputs and returns every violation.
// samples is the number of commit-wait samples the run took.
func check(s *spec, d *deployment, res *loadResult, samples int) []string {
	var out []string
	bad := func(format string, args ...any) { out = append(out, fmt.Sprintf(format, args...)) }
	for _, err := range res.errs {
		bad("%s: transaction failed: %v", s.name, err)
	}
	if samples < minSamples {
		bad("%s: %d commit-wait samples, fewer than the %d a p99 with 10 beyond it needs", s.name, samples, minSamples)
	}
	if got := d.stats().Commits; got < res.committed {
		bad("%s: schedulers report %d commits for %d committed transactions", s.name, got, res.committed)
	}

	// After the drain nothing may stay pending: no mirrored edge, no
	// open release set, no logged decision. Truncation waits for
	// acknowledgements that travel asynchronously, so allow them time.
	tel := d.cluster.Telemetry()
	settled := func() bool {
		return d.cluster.MirrorEdges() == 0 && tel.LiveDecisions.Load() == 0 && (d.log == nil || d.log.Len() == 0)
	}
	for deadline := time.Now().Add(drainWait); !settled() && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if !settled() {
		logLen := 0
		if d.log != nil {
			logLen = d.log.Len()
		}
		bad("%s: after the drain: %d mirrored edges, %d live decisions, %d logged decisions",
			s.name, d.cluster.MirrorEdges(), tel.LiveDecisions.Load(), logLen)
	}

	// Conservation: each stack holds exactly the pushes of the
	// transactions whose commit promise was honoured.
	if s.pushes {
		for obj := core.ObjectID(1); obj <= core.ObjectID(s.gen.Size()); obj++ {
			n, err := d.committedLen(obj)
			if err != nil {
				bad("%s: object %d: %v", s.name, obj, err)
				continue
			}
			want := res.pushes[obj]
			if d.prefilled != nil {
				want += d.prefilled[obj]
			}
			if uint64(n) != want {
				bad("%s: object %d holds %d committed pushes, set-up and clients committed %d", s.name, obj, n, want)
			}
		}
	}

	// Definition 7 at every site: sound (no cascading aborts) and
	// serializable in real-commit order, ending in the site's
	// committed states.
	for i, rec := range d.histories {
		if err := definition7(rec, d.sites[i].CommittedState); err != nil {
			bad("%s: site %d: %v", s.name, i, err)
		}
	}
	return out
}

func definition7(rec *history.Recorder, committed func(core.ObjectID) (adt.State, error)) error {
	events := rec.Events()
	types := pageTypes(events)
	if err := history.CheckSoundness(types, events, rec.AbortedTxns()); err != nil {
		return err
	}
	want := make(map[core.ObjectID]adt.State, len(types))
	for obj := range types {
		st, err := committed(obj)
		if err != nil {
			return err
		}
		want[obj] = st
	}
	if err := history.CheckSerializability(types, events, rec.Commits(), want); err != nil {
		return err
	}
	return rec.PseudoCommitPrecedesCommit()
}

// pageTypes maps every object of an event list to the page type.
func pageTypes(events []history.OpEvent) map[core.ObjectID]adt.Type {
	types := make(map[core.ObjectID]adt.Type)
	for _, e := range events {
		types[e.Object] = adt.Page{}
	}
	return types
}
