package main

import (
	"sync"
	"time"

	"repro/internal/adt"
	"repro/internal/core"
	"repro/internal/depgraph"
	"repro/internal/dist"
	"repro/internal/fault"
)

// layer names the program layer a span was recorded at the boundary of.
type layer uint8

const (
	layerDist  layer = iota // in-process client calls into dist.Cluster transactions
	layerWire               // client calls into wire.Client transactions (the loopback stack)
	layerCore               // a site backend's scheduler calls (in process or in a daemon worker)
	layerFault              // decision-log calls
	numLayers
)

// op names the public call a span times.
type op uint8

const (
	opBegin      op = iota // client Begin (the wrapped Txn's id is known only after it)
	opDo                   // client Txn.Do
	opCommit               // client Txn.Commit
	opCoreBegin            // Participant.Begin
	opRequest              // Participant.RequestInto
	opCoreCommit           // Participant.CommitInto
	opCommitHold           // Participant.CommitHoldInto
	opRelease              // Participant.ReleaseInto
	opAbort                // Participant.AbortInto
	opRevoke               // Participant.RevokeInto
	opWithdraw             // Participant.WithdrawInto
	opEdges                // Participant.OutEdgesAppend
	opForget               // Participant.Forget (one-way over the wire)
	opForce                // Log.Record / BatchRecorder.RecordBatch (one span per id)
	opTruncate             // Log.Truncate (per-call durations only)
	numOps
)

// rpcOps are the core calls a site daemon answers as a request/response
// round trip; edge reads ride on those responses and Forget is one-way.
var rpcOps = []op{opCoreBegin, opRequest, opCoreCommit, opCommitHold, opRelease, opAbort, opRevoke, opWithdraw}

// span is one timed call: [start, end) in nanoseconds since the
// tracer's epoch, tagged with the transaction it served.
type span struct {
	txn        core.TxnID
	start, end int64
	layer      layer
	op         op
}

func (s span) dur() int64 { return s.end - s.start }

// total accumulates every call of one (layer, op), sampled or not.
type total struct {
	n, ns uint64
}

// spanBuf is one recording point's buffer. Each wrapper owns one, so
// the lock is only shared by the callers that already serialise on
// the wrapped object (a site's mutex or FIFO worker, one client).
type spanBuf struct {
	mu     sync.Mutex
	spans  []span
	totals [numLayers][numOps]total
	// calls holds every decision-log call's duration, sampled or not:
	// a batched force is one call for many ids, so per-id spans cannot
	// give per-call percentiles.
	calls [numOps][]int64
}

// tracer owns the epoch, the sampling rule and every buffer. Spans are
// kept only for transactions whose id is a multiple of every, which
// bounds memory; totals count every call.
type tracer struct {
	epoch time.Time
	every uint64

	mu   sync.Mutex
	bufs []*spanBuf
}

func newTracer(every uint64) *tracer {
	return &tracer{epoch: time.Now(), every: every}
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.epoch)) }

func (tr *tracer) sampled(id core.TxnID) bool { return uint64(id)%tr.every == 0 }

func (tr *tracer) newBuf() *spanBuf {
	b := &spanBuf{}
	tr.mu.Lock()
	tr.bufs = append(tr.bufs, b)
	tr.mu.Unlock()
	return b
}

// record files one finished call.
func (tr *tracer) record(b *spanBuf, l layer, o op, id core.TxnID, start int64) {
	end := tr.now()
	b.mu.Lock()
	t := &b.totals[l][o]
	t.n++
	t.ns += uint64(end - start)
	if tr.sampled(id) {
		b.spans = append(b.spans, span{txn: id, start: start, end: end, layer: l, op: o})
	}
	b.mu.Unlock()
}

// reset drops everything recorded so far, so that set-up work done
// through wrapped backends stays out of the measured run.
func (tr *tracer) reset() {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for _, b := range tr.bufs {
		b.mu.Lock()
		b.spans, b.totals, b.calls = nil, [numLayers][numOps]total{}, [numOps][]int64{}
		b.mu.Unlock()
	}
}

// collect merges every buffer: all sampled spans and the per-call
// totals.
func (tr *tracer) collect() (spans []span, totals [numLayers][numOps]total, calls [numOps][]int64) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for _, b := range tr.bufs {
		b.mu.Lock()
		spans = append(spans, b.spans...)
		for l := range b.totals {
			for o := range b.totals[l] {
				totals[l][o].n += b.totals[l][o].n
				totals[l][o].ns += b.totals[l][o].ns
			}
		}
		for o := range b.calls {
			calls[o] = append(calls[o], b.calls[o]...)
		}
		b.mu.Unlock()
	}
	return spans, totals, calls
}

// ---- client side: Begin, Do and Commit of dist.Cluster or wire.Client ----

// beginner is the part of core.Store the closed loop drives.
type beginner interface {
	Begin() core.Txn
}

// tracedStore times Begin and hands out timed transaction handles.
type tracedStore struct {
	inner beginner
	tr    *tracer
	layer layer
	buf   *spanBuf
}

func newTracedStore(inner beginner, tr *tracer, l layer) *tracedStore {
	return &tracedStore{inner: inner, tr: tr, layer: l, buf: tr.newBuf()}
}

func (s *tracedStore) Begin() core.Txn {
	start := s.tr.now()
	t := s.inner.Begin()
	s.tr.record(s.buf, s.layer, opBegin, t.ID(), start)
	return &tracedTxn{Txn: t, s: s}
}

// tracedTxn times Do and Commit; the remaining core.Txn methods pass
// through the embedded handle untimed.
type tracedTxn struct {
	core.Txn
	s *tracedStore
}

func (t *tracedTxn) Do(obj core.ObjectID, o adt.Op) (adt.Ret, error) {
	start := t.s.tr.now()
	ret, err := t.Txn.Do(obj, o)
	t.s.tr.record(t.s.buf, t.s.layer, opDo, t.Txn.ID(), start)
	return ret, err
}

func (t *tracedTxn) Commit() (core.CommitStatus, error) {
	start := t.s.tr.now()
	st, err := t.Txn.Commit()
	t.s.tr.record(t.s.buf, t.s.layer, opCommit, t.Txn.ID(), start)
	return st, err
}

// ---- site backends ----

// site times a dist.SiteBackend's participant calls. The inspection
// and registration methods pass through untimed.
type site struct {
	dist.SiteBackend
	tr  *tracer
	buf *spanBuf
}

func (s *site) rec(o op, id core.TxnID, start int64) { s.tr.record(s.buf, layerCore, o, id, start) }

func (s *site) Begin(id core.TxnID) error {
	start := s.tr.now()
	err := s.SiteBackend.Begin(id)
	s.rec(opCoreBegin, id, start)
	return err
}

func (s *site) RequestInto(eff *core.Effects, id core.TxnID, obj core.ObjectID, o adt.Op) (core.Decision, error) {
	start := s.tr.now()
	d, err := s.SiteBackend.RequestInto(eff, id, obj, o)
	s.rec(opRequest, id, start)
	return d, err
}

func (s *site) CommitInto(eff *core.Effects, id core.TxnID) (core.CommitStatus, error) {
	start := s.tr.now()
	st, err := s.SiteBackend.CommitInto(eff, id)
	s.rec(opCoreCommit, id, start)
	return st, err
}

func (s *site) CommitHoldInto(eff *core.Effects, id core.TxnID) (int, error) {
	start := s.tr.now()
	n, err := s.SiteBackend.CommitHoldInto(eff, id)
	s.rec(opCommitHold, id, start)
	return n, err
}

func (s *site) ReleaseInto(eff *core.Effects, id core.TxnID) error {
	start := s.tr.now()
	err := s.SiteBackend.ReleaseInto(eff, id)
	s.rec(opRelease, id, start)
	return err
}

func (s *site) AbortInto(eff *core.Effects, id core.TxnID) error {
	start := s.tr.now()
	err := s.SiteBackend.AbortInto(eff, id)
	s.rec(opAbort, id, start)
	return err
}

func (s *site) RevokeInto(eff *core.Effects, id core.TxnID, reason core.AbortReason) error {
	start := s.tr.now()
	err := s.SiteBackend.RevokeInto(eff, id, reason)
	s.rec(opRevoke, id, start)
	return err
}

func (s *site) WithdrawInto(eff *core.Effects, id core.TxnID) error {
	start := s.tr.now()
	err := s.SiteBackend.WithdrawInto(eff, id)
	s.rec(opWithdraw, id, start)
	return err
}

func (s *site) OutEdgesAppend(id core.TxnID, buf []depgraph.Edge) []depgraph.Edge {
	start := s.tr.now()
	out := s.SiteBackend.OutEdgesAppend(id, buf)
	s.rec(opEdges, id, start)
	return out
}

func (s *site) Forget(id core.TxnID) {
	start := s.tr.now()
	s.SiteBackend.Forget(id)
	s.rec(opForget, id, start)
}

type crashSite struct {
	*site
	dist.CrashRestarter
}

// wrapSite returns a timed backend that is a dist.CrashRestarter when
// inner is one: dist refuses a fault-tolerant backend without it. The
// program probes two more optional interfaces on backends, BlockedDepth
// (only the site daemon's debug server) and SetTraceLookup (only with
// the span plane on); the benchmark starts neither, so the wrapper need
// not forward them.
func wrapSite(inner dist.SiteBackend, tr *tracer) dist.SiteBackend {
	s := &site{SiteBackend: inner, tr: tr, buf: tr.newBuf()}
	if cr, ok := inner.(dist.CrashRestarter); ok {
		return crashSite{s, cr}
	}
	return s
}

// ---- decision log ----

// tracedLog times a decision log's forces and truncations.
type tracedLog struct {
	batchLog
	tr  *tracer
	buf *spanBuf
}

// force files one durability round covering ids: a per-id span for
// attribution, and one per-call duration.
func (l *tracedLog) force(ids []core.TxnID, start int64) {
	end := l.tr.now()
	b := l.buf
	b.mu.Lock()
	b.calls[opForce] = append(b.calls[opForce], end-start)
	t := &b.totals[layerFault][opForce]
	t.n += uint64(len(ids))
	t.ns += uint64(end - start)
	for _, id := range ids {
		if l.tr.sampled(id) {
			b.spans = append(b.spans, span{txn: id, start: start, end: end, layer: layerFault, op: opForce})
		}
	}
	b.mu.Unlock()
}

func (l *tracedLog) Record(id core.TxnID, o fault.Outcome) error {
	start := l.tr.now()
	err := l.batchLog.Record(id, o)
	l.force([]core.TxnID{id}, start)
	return err
}

func (l *tracedLog) Truncate(id core.TxnID) error {
	start := l.tr.now()
	err := l.batchLog.Truncate(id)
	end := l.tr.now()
	l.buf.mu.Lock()
	l.buf.calls[opTruncate] = append(l.buf.calls[opTruncate], end-start)
	l.buf.mu.Unlock()
	return err
}

func (l *tracedLog) RecordBatch(ids []core.TxnID, o fault.Outcome) error {
	start := l.tr.now()
	err := l.batchLog.RecordBatch(ids, o)
	l.force(ids, start)
	return err
}

// batchLog is a decision log with the optional extensions the program
// probes: dist's decide pipeline forces through fault.BatchRecorder,
// and a restarting coordinator adopts commits through OutcomeIDs.
// fault.MemLog and fault.FileLog have both.
type batchLog interface {
	fault.Log
	fault.BatchRecorder
	OutcomeIDs(fault.Outcome) []core.TxnID
}

// wrapLog returns a timed log with the same optional extensions as
// inner.
func wrapLog(inner batchLog, tr *tracer) fault.Log {
	return &tracedLog{batchLog: inner, tr: tr, buf: tr.newBuf()}
}
