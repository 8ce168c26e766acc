// Package dist implements the paper's §6 extension to distributed
// objects: the database is partitioned across sites, each site runs an
// independent semantics-based scheduler (any core.Participant), and a
// coordinator mirrors the commit-dependency and wait-for edges every
// site reports into a union graph (depgraph.Mirror). Cycle detection
// over the union catches cross-site deadlocks and commit-dependency
// cycles that no single site can see.
//
// Commit is the paper's commit conversation: the coordinator
// pseudo-commits-and-holds the transaction at every participant it
// visited (core.Participant.CommitHoldInto), then releases the real
// commit everywhere once the transaction's global dependency set — its
// out-degree in the mirrored union graph — drains to zero. Until then
// the transaction is complete from the caller's perspective
// (PseudoCommitted) and its operations remain visible to, and gate,
// later transactions at each site.
//
// The same machinery doubles as a shared-memory sharding layer: New(n,
// ...) with in-process sites gives n independently locked schedulers,
// so transactions over objects at different sites proceed in parallel
// instead of serialising on one scheduler mutex. Independent
// transactions never touch the coordinator (no dependency edges, no
// mirror traffic), which is what makes the sharded path scale.
//
// Cluster implements core.Store and its transactions core.Txn, so
// client code written against the Store interface runs unchanged on a
// single-scheduler DB or on a cluster; each site routes its scheduler
// effects to parked goroutines through the same delivery layer
// (internal/delivery) the local front end uses.
package dist

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/adt"
	"repro/internal/compat"
	"repro/internal/core"
	"repro/internal/delivery"
	"repro/internal/depgraph"
	"repro/internal/fault"
	"repro/internal/telemetry"
)

// SiteBackend is what a cluster needs from a site beyond the
// Participant protocol: registration-time setup and the inspection
// surface tests and tools use. Both the plain *core.Scheduler (a site
// assumed immortal) and *fault.Crashable (a crash-stop site) implement
// it.
type SiteBackend interface {
	core.Participant
	Register(id core.ObjectID, typ adt.Type, class compat.Classifier) error
	SetFactory(f func(core.ObjectID) (adt.Type, compat.Classifier))
	StatsSnapshot() core.Stats
	ObjectState(id core.ObjectID) (adt.State, error)
	CommittedState(id core.ObjectID) (adt.State, error)
	TxnState(id core.TxnID) string
	OutDegree(id core.TxnID) int
	OutEdgesOf(id core.TxnID) []depgraph.Edge
}

var (
	_ SiteBackend = (*core.Scheduler)(nil)
	_ SiteBackend = (*fault.Crashable)(nil)
)

// CrashRestarter is the optional crash-stop surface of a SiteBackend:
// fault.Crashable implements it with a simulated disk, and a network
// backend (wire.RemoteSite) implements it as connection loss plus
// reconnect-time reconciliation. A fault-tolerant cluster requires its
// backends to provide it; Crash/Restart drive it under the site mutex.
type CrashRestarter interface {
	// Crash fails the site: volatile state is gone, subsequent calls
	// answer fault.ErrSiteDown until Restart.
	Crash() error
	// Restart brings the site back and resolves its in-doubt prepared
	// records against the decision log: logged commits are redone
	// (reported in Redone — the cluster acks their release), the rest
	// presumed aborted.
	Restart() (fault.RecoveryReport, error)
	// Down reports whether the site is currently failed.
	Down() bool
}

var _ CrashRestarter = (*fault.Crashable)(nil)

// SiteID identifies one participant site, 0..NumSites-1.
type SiteID int

// Router maps an object to the site that owns it. Routers must be
// deterministic and total over the object-id space.
type Router func(core.ObjectID) SiteID

// RouteByModulo partitions objects across n sites by id modulo n — the
// uniform partitioning the paper's simulation model assumes.
func RouteByModulo(n int) Router {
	return func(id core.ObjectID) SiteID { return SiteID(uint64(id) % uint64(n)) }
}

// Observer receives coordinator-level events. Implementations must be
// safe for concurrent use; callbacks run without coordinator locks
// held. A nil Observer disables observation.
type Observer interface {
	// Held reports a commit conversation that left the transaction
	// pseudo-committed-and-held with globalDeps outstanding
	// cross-site dependencies.
	Held(t core.TxnID, globalDeps int)
	// Released reports that the transaction's global dependency set
	// drained and the real commit landed at every participant.
	Released(t core.TxnID)
	// Aborted reports a coordinator-initiated or propagated abort.
	Aborted(t core.TxnID, reason string)
}

// Errors.
var (
	// ErrBadSites is returned by New for a non-positive site count.
	ErrBadSites = errors.New("dist: cluster needs at least one site")
	// ErrNotFaultTolerant is returned by Crash/Restart on a cluster
	// built without Config.FaultTolerant.
	ErrNotFaultTolerant = errors.New("dist: cluster is not fault-tolerant")
	// ErrTxnDone is returned for operations on a transaction that has
	// already entered commit. It aliases core.ErrTxnDone, so one
	// errors.Is target covers both back ends.
	ErrTxnDone = core.ErrTxnDone
)

// site is one participant plus the delivery plumbing for its blocked
// requests. Each site has its own mutex: operations against different
// sites never contend, which is the whole point of sharding. The hub —
// the shared Effects→parked-goroutine routing layer — replaces the
// per-front-end waiter maps both this package and core.DB used to
// carry; a transaction blocks at no more than one site at a time (Do is
// synchronous per handle).
type site struct {
	id  SiteID
	mu  sync.Mutex
	p   SiteBackend
	cr  CrashRestarter // non-nil on a fault-tolerant cluster (p's crash surface)
	hub *delivery.Hub
	// txns registers every live transaction that has begun at this
	// site, guarded by mu. The crash handler uses it to find the
	// transactions a site failure dooms; entries leave when the
	// transaction is forgotten at the site.
	txns map[core.TxnID]*Txn
	// edgeBuf is the reusable OutEdgesAppend scratch for this site's
	// mirror exports. Guarded by mu, like every export-and-observe
	// pair.
	edgeBuf []depgraph.Edge
}

// forget drops the transaction's bookkeeping at the site: the
// participant's record and the site registry entry. Caller holds s.mu.
func (s *site) forget(id core.TxnID) {
	s.p.Forget(id)
	delete(s.txns, id)
}

// edges exports id's current out-edges into the site's reusable
// buffer. Caller holds s.mu; the result is valid until the next edges
// call on this site, which every consumer (observe, refreshParked, the
// commit-hold loop) satisfies by finishing with the slice before
// releasing the mutex.
func (s *site) edges(id core.TxnID) []depgraph.Edge {
	s.edgeBuf = s.p.OutEdgesAppend(id, s.edgeBuf)
	return s.edgeBuf
}

// Cluster is a set of participant sites under one commit coordinator.
// It is safe for concurrent use; each transaction handle must be
// driven by one goroutine at a time. Cluster implements core.Store.
type Cluster struct {
	route Router
	obs   Observer
	hook  StepHook
	sites []*site

	// faulty marks a fault-tolerant cluster (crash-stop sites wrapped
	// in fault.Crashable, commit decisions forced to flog before any
	// release). flog is nil on a plain cluster.
	faulty bool
	flog   fault.Log

	nextID atomic.Uint64

	// closed gates Begin and Register; atomic so neither takes a lock.
	closed atomic.Bool

	// The coordinator state is split into independently locked domains
	// so the paths that need one never serialise on the others:
	//
	//   reg     — the sharded live-transaction registry (per-shard
	//             locks). Begin and the edge-free finalisation fast
	//             path touch only this.
	//   mu      — the union-graph domain: the mirror and its batching
	//             counter. Taken only by transactions that actually
	//             have dependency edges (and by crash/restart).
	//   pipe    — the conversation pipeline combining concurrent
	//             decision rounds into decideWave calls.
	//   logMu   — the decision-log ack domain (relAcks).
	//   closeMu — the draining-close domain (drain).
	//
	// Lock order: site.mu -> mu -> {registry shard, logMu}, and
	// closeMu, eagerMu alone. pipe.mu is never held across another
	// lock.
	reg registry

	mu     sync.Mutex
	mirror *depgraph.Mirror
	// holdBatches counts commit conversations that mirrored their hold
	// exports in one coordinator critical section (the batching the
	// counting-observer test pins, together with mirror.Observes).
	holdBatches uint64
	// policy, when non-nil, is the bounded-hold release policy (a Fresh
	// clone of Config.Policy). Consulted in decideWave, under mu.
	policy HoldPolicy
	// heldCount tracks the live held set and pstats the policy's
	// decision counters; both under mu (every held-set transition — the
	// decideWave hold branch, cascade's ready selection, Crash's revoke
	// CAS — already runs there).
	heldCount int
	pstats    PolicyStats
	// eagerMu guards eagerQueue/eagerBusy, the hand-off that keeps at
	// most one eager-subtree cascade running at a time (see
	// cascadeEager). Held only around the queue state, never across
	// another lock or a release.
	eagerMu    sync.Mutex
	eagerQueue []core.TxnID
	eagerBusy  bool

	pipe pipeline
	// waveSeq numbers decide waves; sampled decide spans carry the wave
	// id so a trace shows which conversations shared a combining round.
	waveSeq atomic.Uint64

	// logMu guards relAcks: per logged commit decision, the
	// participants whose release (or restart-time redo) has not yet
	// been confirmed. Opened at the commit point; once the set drains
	// the decision is truncated from the log — presumed abort never
	// needs it again. Nil map on a plain cluster.
	logMu   sync.Mutex
	relAcks map[core.TxnID]map[SiteID]struct{}
	// clientGate lists transactions whose commit decision must outlive
	// the participant acks until an external client confirms it learned
	// the outcome (GateDecision/AckDecision). A network front end uses
	// this for exactly-once commits: if the client's connection dies
	// before the commit reply, the decision is still in the log when the
	// client reconnects and asks. Guarded by logMu; nil until first use.
	clientGate map[core.TxnID]struct{}
	// redoClaims arbitrates the race between restart reconciliation
	// redoing a logged direct commit at a participant and the live
	// commit conversation withdrawing that decision after its own push
	// failed. Reconciliation claims the decision (ClaimRedo) under
	// logMu before redoing; undoDirectCommit finds the claim and keeps
	// the decision — the commit landed via the redo, so the
	// conversation reports Committed instead of retrying (a retry
	// would push twice). Guarded by logMu; nil until first use.
	redoClaims map[core.TxnID]struct{}

	// closeMu guards drain: when non-nil, closed once the registry
	// empties after Close — the CloseCtx waiters' signal.
	closeMu sync.Mutex
	drain   chan struct{}

	// tel is the coordinator's always-on instrument block (counters and
	// histograms are lock-free; phase timings are recorded only on the
	// conversation path, so the edge-free fast path stays untimed).
	tel telemetry.DistMetrics

	// Span plane (nil unless Config.Spans > 0 or Config.Flight is set;
	// every Record is nil-safe): sampler mints deterministic
	// per-transaction trace contexts at Begin, spans holds the
	// process's span ring plus the tail-latency exemplar store, and
	// flight (shared with the hosting process) dumps that buffer as the
	// crash black box.
	spans      *telemetry.SpanBuffer
	sampler    *telemetry.Sampler
	flight     *telemetry.FlightRecorder
	sampleSeed int64
	sampleRate float64
}

// Cluster is the distributed core.Store.
var (
	_ core.Store = (*Cluster)(nil)
	_ core.Txn   = (*Txn)(nil)
)

// Config parameterises NewWithConfig, the constructor that covers the
// fault-tolerant variants New cannot express.
type Config struct {
	// Sites is the number of participant sites (required, positive).
	Sites int
	// Opts configures every site's scheduler.
	Opts core.Options
	// Route decides object placement (nil means RouteByModulo(Sites)).
	Route Router
	// Obs optionally observes coordinator events.
	Obs Observer
	// FaultTolerant wraps every site in a fault.Crashable: sites can
	// Crash and Restart, the coordinator forces commit decisions to the
	// decision log before releasing, and transactions touching a
	// crashed site abort with ReasonSiteFailed instead of wedging.
	FaultTolerant bool
	// Log is the coordinator's decision log; nil means a fresh
	// fault.NewMemLog(). Ignored unless FaultTolerant.
	Log fault.Log
	// StepHook, when non-nil, is fired at every named protocol-step
	// boundary of commit conversations (see StepHook); nil is the
	// zero-overhead passthrough.
	StepHook StepHook
	// Policy, when non-nil, bounds the hold convoy (see HoldPolicy).
	// The cluster uses a Fresh clone, so one value can configure many
	// clusters. Nil preserves the paper's unbounded hold behaviour.
	Policy HoldPolicy
	// Backends, when non-nil, supplies the participant sites instead of
	// the cluster constructing in-process schedulers (len must equal
	// Sites; Opts is then unused). This is how a coordinator runs over
	// remote participants: wire.RemoteSite implements SiteBackend over a
	// TCP connection. With FaultTolerant, each backend must also
	// implement CrashRestarter.
	Backends []SiteBackend
	// Spans, when positive, enables causal tracing: every transaction
	// is minted a deterministic trace context at Begin, and sampled
	// conversations record span records (begin/hold/decide/release/...)
	// into a per-process buffer of this capacity, exportable as a
	// Chrome trace and stitched cluster-wide by sccctl. Zero disables
	// the span plane entirely — the zero-overhead default.
	Spans int
	// SpanExemplars bounds the tail-based exemplar store: completed
	// traces whose end-to-end latency lands in the top latency buckets
	// are pinned (copied out of the ring) instead of overwritten.
	// Zero picks a small default. Ignored unless Spans > 0.
	SpanExemplars int
	// SampleSeed seeds the deterministic trace sampler: the same seed
	// and transaction id always produce the same trace id and sampling
	// decision, so seeded runs trace reproducibly and contexts can be
	// re-derived after a coordinator restart.
	SampleSeed int64
	// SampleRate is the fraction of transactions sampled, in [0,1].
	// Zero defaults to 1 (sample everything) when the span plane is on.
	SampleRate float64
	// Flight, when non-nil, is the process's flight recorder, and its
	// span buffer is the cluster's: spans land in the window a dump
	// (SIGQUIT, panic, invariant violation) writes out, and Spans /
	// SpanExemplars are ignored. The recorder arms the span plane, so
	// the sampler settings apply.
	Flight *telemetry.FlightRecorder
}

// New builds a cluster of n in-process sites, each running its own
// scheduler with the given options. route decides object placement
// (nil means RouteByModulo(n)); obs optionally observes coordinator
// events. Sites are assumed immortal; NewWithConfig builds the
// crash-stop fault-tolerant variant.
func New(n int, opts core.Options, route Router, obs Observer) (*Cluster, error) {
	return NewWithConfig(Config{Sites: n, Opts: opts, Route: route, Obs: obs})
}

// NewWithConfig builds a cluster from a Config; see New for the plain
// case and Config.FaultTolerant for the crash-stop one.
func NewWithConfig(cfg Config) (*Cluster, error) {
	if cfg.Sites <= 0 {
		return nil, ErrBadSites
	}
	route := cfg.Route
	if route == nil {
		route = RouteByModulo(cfg.Sites)
	}
	c := &Cluster{
		route:  route,
		obs:    cfg.Obs,
		hook:   cfg.StepHook,
		faulty: cfg.FaultTolerant,
		mirror: depgraph.NewMirror(),
		flight: cfg.Flight,
		spans:  cfg.Flight.Spans(),
	}
	c.mirror.SetMetrics(&c.tel.Mirror)
	if c.spans == nil && cfg.Spans > 0 {
		c.spans = telemetry.NewSpanBuffer(cfg.Spans, cfg.SpanExemplars)
	}
	if c.spans != nil {
		rate := cfg.SampleRate
		if rate <= 0 {
			rate = 1
		}
		c.sampler = telemetry.NewSampler(cfg.SampleSeed, rate)
		c.sampleSeed, c.sampleRate = cfg.SampleSeed, rate
	}
	if cfg.Policy != nil {
		c.policy = cfg.Policy.Fresh()
	}
	c.reg.init()
	if cfg.FaultTolerant {
		c.flog = cfg.Log
		if c.flog == nil {
			c.flog = fault.NewMemLog()
		}
		c.relAcks = make(map[core.TxnID]map[SiteID]struct{})
	}
	if cfg.Backends != nil && len(cfg.Backends) != cfg.Sites {
		return nil, fmt.Errorf("dist: %d backends for %d sites", len(cfg.Backends), cfg.Sites)
	}
	for i := 0; i < cfg.Sites; i++ {
		s := &site{
			id:   SiteID(i),
			hub:  delivery.NewHub(),
			txns: make(map[core.TxnID]*Txn),
		}
		switch {
		case cfg.Backends != nil:
			s.p = cfg.Backends[i]
			if cfg.FaultTolerant {
				cr, ok := s.p.(CrashRestarter)
				if !ok {
					return nil, fmt.Errorf("dist: fault-tolerant backend %d (%T) must implement CrashRestarter", i, s.p)
				}
				s.cr = cr
			}
		case cfg.FaultTolerant:
			cr, err := fault.New(cfg.Opts, c.flog)
			if err != nil {
				return nil, err
			}
			s.cr, s.p = cr, cr
		default:
			s.p = core.NewScheduler(cfg.Opts)
		}
		c.sites = append(c.sites, s)
	}
	if c.spans != nil {
		// Remote backends propagate the per-transaction context in their
		// frame headers so site daemons stitch into the same trace.
		for _, s := range c.sites {
			if tl, ok := s.p.(interface {
				SetTraceLookup(func(core.TxnID) telemetry.TraceContext)
			}); ok {
				tl.SetTraceLookup(c.TraceContextOf)
			}
		}
	}
	return c, nil
}

// TraceContextOf resolves a transaction's trace context: the live
// registry entry when the transaction is in flight, else re-derived
// from the deterministic sampler (redo of an already-unregistered
// transaction after a restart). Zero when the span plane is off.
func (c *Cluster) TraceContextOf(id core.TxnID) telemetry.TraceContext {
	if c.sampler == nil {
		return telemetry.TraceContext{}
	}
	if t := c.reg.get(id); t != nil {
		return t.Trace()
	}
	return c.sampler.Context(uint64(id))
}

// Spans returns the cluster's span buffer (nil with the span plane off).
func (c *Cluster) Spans() *telemetry.SpanBuffer { return c.spans }

// Flight returns the attached flight recorder (nil unless configured).
func (c *Cluster) Flight() *telemetry.FlightRecorder { return c.flight }

// SampleConfig reports the span plane's sampler parameters; rate is 0
// when the span plane is off.
func (c *Cluster) SampleConfig() (seed int64, rate float64) { return c.sampleSeed, c.sampleRate }

// completeTrace finishes a sampled transaction's trace: end-to-end
// latency measured from Begin drives the tail-based exemplar store, so
// the slowest conversations survive ring wraparound.
func (c *Cluster) completeTrace(t *Txn) {
	if c.spans == nil {
		return
	}
	tc := t.Trace()
	if !tc.Sampled() {
		return
	}
	c.spans.Complete(tc, uint64(t.id), int64(time.Since(t.begin)))
}

// DecisionLog returns the coordinator's decision log (nil on a plain
// cluster).
func (c *Cluster) DecisionLog() fault.Log { return c.flog }

// NumSites returns the number of participant sites.
func (c *Cluster) NumSites() int { return len(c.sites) }

// Site exposes one site's backend for registration-time setup and
// state inspection (object states are site-local; route objects with
// the cluster's router).
func (c *Cluster) Site(id SiteID) SiteBackend { return c.sites[id].p }

// SiteOf returns the site that owns the object.
func (c *Cluster) SiteOf(id core.ObjectID) SiteID { return c.route(id) }

// Register creates the object eagerly at its home site. It fails with
// ErrClosed on a closed cluster.
func (c *Cluster) Register(id core.ObjectID, typ adt.Type, class compat.Classifier) error {
	if c.closed.Load() {
		return core.ErrClosed
	}
	return c.sites[c.route(id)].p.Register(id, typ, class)
}

// SetFactory installs a lazy object constructor at every site. Routing
// guarantees an object only ever materialises at its home site.
func (c *Cluster) SetFactory(f func(core.ObjectID) (adt.Type, compat.Classifier)) {
	for _, s := range c.sites {
		s.p.SetFactory(f)
	}
}

// Begin starts a distributed transaction. The coordinator assigns the
// id; sites learn about the transaction lazily on first touch. On a
// closed cluster it returns a transaction failing with ErrClosed.
//
// Begin touches only the transaction's registry shard — no global
// coordinator lock — so concurrent Begins on independent transactions
// scale with cores.
func (c *Cluster) Begin() core.Txn {
	if c.closed.Load() {
		return core.ClosedTxn(core.ErrClosed)
	}
	t := &Txn{
		c:    c,
		id:   core.TxnID(c.nextID.Add(1)),
		done: make(chan struct{}),
	}
	t.state.Store(txActive)
	if c.sampler != nil {
		tc := c.sampler.Context(uint64(t.id))
		t.tc.Store(&tc)
		t.begin = time.Now()
		c.spans.Record(tc, telemetry.SpanBegin, uint64(t.id), -1, 0, 0, 0)
	}
	c.reg.add(t)
	if c.closed.Load() {
		// Close raced the registration: withdraw so the draining close
		// does not wait on a transaction that never ran.
		c.reg.unregister(t.id)
		c.maybeDrained()
		return core.ClosedTxn(core.ErrClosed)
	}
	return t
}

// Run executes fn inside a transaction with automatic retry of
// retryable aborts; see core.RunStore.
func (c *Cluster) Run(ctx context.Context, fn func(core.Txn) error) error {
	return core.RunStore(ctx, c, fn)
}

// Close marks the cluster closed: Begin afterwards returns a
// transaction failing with ErrClosed, and Register fails. Transactions
// already begun — including held pseudo-commits awaiting release — are
// unaffected and run to completion. Idempotent.
func (c *Cluster) Close() error {
	c.closed.Store(true)
	return nil
}

// CloseCtx is the draining close: it gates the cluster like Close,
// then waits until every transaction in flight at close time —
// including held pseudo-commits awaiting release — has reached its
// terminal state. A cancelled ctx stops the wait and returns ctx.Err()
// with the gate left in place (force-gate); the in-flight transactions
// still run to completion on their own.
func (c *Cluster) CloseCtx(ctx context.Context) error {
	c.closed.Store(true)
	c.closeMu.Lock()
	if c.reg.count() == 0 {
		c.closeMu.Unlock()
		return nil
	}
	if c.drain == nil {
		c.drain = make(chan struct{})
	}
	drained := c.drain
	c.closeMu.Unlock()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// maybeDrained closes the drain channel if a CloseCtx is waiting and
// the registry has emptied. Callers invoke it after unregistering a
// transaction, outside every other lock; the re-check under closeMu
// pairs with CloseCtx's count-then-wait so the signal cannot be lost.
func (c *Cluster) maybeDrained() {
	if !c.closed.Load() || c.reg.count() != 0 {
		return
	}
	c.closeMu.Lock()
	if c.drain != nil && c.reg.count() == 0 {
		close(c.drain)
		c.drain = nil
	}
	c.closeMu.Unlock()
}

// Stats sums every site's scheduler counters. Each site's snapshot is
// internally consistent (taken under that scheduler's lock), but the
// sum is fuzzy across sites: concurrent transactions may land between
// snapshots. Counters are per-site event counts, so a transaction
// touching k sites contributes k to Commits (its real commit lands at
// each visited participant), k to PseudoCommits when held, and its
// aborts count once per site that undoes it; Executes/Blocks/Grants
// and the edge counters are naturally per-site. Use SiteStats for one
// site's exact view.
func (c *Cluster) Stats() core.Stats {
	var sum core.Stats
	for _, s := range c.sites {
		sum.Add(s.p.StatsSnapshot())
	}
	return sum
}

// SiteStats returns one site's counters, snapshot under that
// scheduler's lock (exact, unlike the cluster-wide sum).
func (c *Cluster) SiteStats(id SiteID) core.Stats {
	return c.sites[id].p.StatsSnapshot()
}

// ackRelease confirms that one participant has made the logged commit
// durable in its base state (released it, or redone it during restart
// recovery). When the last participant acks, the decision leaves the
// log: every prepared record for the transaction is resolved, so
// presumed abort can never need it again. Truncation is best-effort —
// a failed prune costs log space, not correctness. Acks live in their
// own lock domain (logMu): release cascades never serialise on the
// union graph for bookkeeping.
func (c *Cluster) ackRelease(id core.TxnID, sid SiteID) {
	if c.flog == nil {
		return
	}
	c.logMu.Lock()
	pending := c.relAcks[id]
	if pending != nil {
		delete(pending, sid)
	}
	done := pending != nil && len(pending) == 0
	var violation uint64
	if done {
		delete(c.relAcks, id)
		delete(c.redoClaims, id)
		c.tel.DecisionsResolved.Inc()
		c.tel.LiveDecisions.Set(int64(len(c.relAcks)))
		// Decision conservation: every resolved decision was first
		// logged by this coordinator or adopted from the log. More
		// resolutions than that budget means release accounting
		// double-counted — dump the black box while the evidence
		// (recent spans) is still in the ring.
		if r, b := c.tel.DecisionsResolved.Load(), c.tel.DecisionsLogged.Load()+c.tel.DecisionsAdopted.Load(); r > b {
			violation = r - b
		}
	}
	c.logMu.Unlock()
	if violation > 0 {
		_, _ = c.flight.DumpOnce("conservation-violation",
			fmt.Sprintf("txn %d site %d: resolved exceeds logged+adopted by %d", id, sid, violation))
	}
	if done {
		_ = c.flog.Truncate(id)
	}
}

// clientAck is the virtual release-ack member standing for "the client
// has learned this commit outcome" (see Cluster.GateDecision).
const clientAck SiteID = -2

// GateDecision marks the transaction's eventual commit decision as
// client-acknowledged: if the commit point is reached, the decision
// stays in the log — even after every participant released — until
// AckDecision confirms the client learned the outcome. Call before
// starting the commit conversation. On a plain (non-fault-tolerant)
// cluster it is a no-op.
func (c *Cluster) GateDecision(id core.TxnID) {
	if c.flog == nil {
		return
	}
	c.logMu.Lock()
	if c.clientGate == nil {
		c.clientGate = make(map[core.TxnID]struct{})
	}
	c.clientGate[id] = struct{}{}
	c.logMu.Unlock()
}

// AckDecision confirms the gated client learned the transaction's
// outcome, releasing the decision for truncation once every participant
// has acked too. Safe (and a no-op) for transactions that were never
// gated or never reached the commit point.
func (c *Cluster) AckDecision(id core.TxnID) {
	if c.flog == nil {
		return
	}
	c.logMu.Lock()
	delete(c.clientGate, id)
	c.logMu.Unlock()
	c.ackRelease(id, clientAck)
}

// AdoptDecision re-arms release accounting for a commit decision found
// in the log by a restarting coordinator: the decision stays durable
// until every site has confirmed it no longer holds the transaction
// (AckDecisionSite, or a Restart recovery report's redo) and the
// owning client has learned the outcome (AckDecision). Call before the
// adoption-time site restarts, so their redo acks land in the pending
// set instead of a void.
func (c *Cluster) AdoptDecision(id core.TxnID) {
	if c.flog == nil {
		return
	}
	c.logMu.Lock()
	if c.clientGate == nil {
		c.clientGate = make(map[core.TxnID]struct{})
	}
	c.clientGate[id] = struct{}{}
	if c.relAcks[id] == nil {
		pending := make(map[SiteID]struct{}, len(c.sites)+1)
		pending[clientAck] = struct{}{}
		for _, s := range c.sites {
			pending[s.id] = struct{}{}
		}
		c.relAcks[id] = pending
		c.tel.DecisionsAdopted.Inc()
		c.tel.LiveDecisions.Set(int64(len(c.relAcks)))
	}
	c.logMu.Unlock()
}

// AckDecisionSite records that the site holds nothing for the adopted
// decision — either its reconciliation released the hold, or it never
// had one. The adopting coordinator calls it for every adopted id
// after a site restart succeeds; idempotent, and a no-op for decisions
// already truncated.
func (c *Cluster) AckDecisionSite(id core.TxnID, sid SiteID) {
	c.ackRelease(id, sid)
}

// filterLive drops edges to transactions the coordinator has already
// finalised: their mirror nodes are gone, and re-adding a stale edge
// would hold the source's dependency set open forever. Each kept
// target is simultaneously marked as mirrored (registry.markMirror's
// shard critical section), which is what lets its finalisation decide
// — without the union-graph lock — whether mirror cleanup is needed.
// Filters in place (the site's reusable export buffer is ours until
// the site mutex is released, and the mirror copies what it keeps).
// Caller holds c.mu.
func (c *Cluster) filterLive(edges []depgraph.Edge) []depgraph.Edge {
	live := edges[:0]
	for _, e := range edges {
		if c.reg.markMirror(e.To) != nil {
			live = append(live, e)
		}
	}
	return live
}

// observe mirrors t's current out-edges at site sid into the union
// graph and reports whether that closed a global cycle through t.
//
// Mirror writes for a (site, transaction) pair must be serialised
// against the edge export they carry, or a slow writer could clobber
// a fresher observe with stale edges (losing, say, a commit
// dependency — the transaction would then never be released). The
// site mutex is that serialisation: every export-plus-Observe pair
// runs under s.mu, here and in refreshParked, giving the lock order
// site.mu -> Cluster.mu (never the reverse).
func (c *Cluster) observe(t *Txn, sid SiteID) bool {
	s := c.sites[sid]
	s.mu.Lock()
	edges := s.edges(t.id)
	if len(edges) == 0 && !t.anyEdges.Load() {
		s.mu.Unlock()
		return false // fast path: no coordinator involvement
	}
	if len(edges) > 0 {
		t.anyEdges.Store(true)
	}
	c.mu.Lock()
	c.mirror.Observe(int(sid), t.id, c.filterLive(edges))
	cyc := c.mirror.HasCycleFrom(t.id)
	c.mu.Unlock()
	s.mu.Unlock()
	return cyc
}

// unobserve re-mirrors t's remaining out-edges at site sid after a
// withdrawal shed its wait-for edges, so the union graph cannot hold a
// stale wait-for edge that would close a phantom cycle. No cycle check:
// removing edges cannot create one.
func (c *Cluster) unobserve(t *Txn, sid SiteID) {
	s := c.sites[sid]
	s.mu.Lock()
	if t.anyEdges.Load() {
		edges := s.edges(t.id)
		c.mu.Lock()
		if c.reg.get(t.id) != nil {
			c.mirror.Observe(int(sid), t.id, c.filterLive(edges))
		}
		c.mu.Unlock()
	}
	s.mu.Unlock()
}

// refreshParked re-mirrors the out-edges of every transaction still
// parked at the site. A site-level retry (inside some other call's
// settle) can shed a parked transaction's wait-for edges and re-block
// it behind different holders while its owner goroutine sleeps —
// under unfair scheduling even behind holders it had no edge to when
// it parked. The owner cannot re-observe until it wakes, so whoever
// ran the site operation refreshes on its behalf; otherwise a
// cross-site deadlock through a re-blocked edge would be invisible
// to the union graph forever.
//
// Only transactions still parked (present in the site's hub, checked
// under s.mu) are touched: once granted, the owner's own observe is the
// single writer for the pair, and the s.mu serialisation above keeps
// the two from interleaving stale reads with fresh writes.
//
// A re-mirrored edge can itself close a cross-site cycle between
// transactions that are ALL parked — then no owner's observe will
// ever run the check, so refreshParked must: on a cycle through a
// parked transaction it aborts it at this site and wakes its owner
// with the deadlock verdict (the owner propagates the abort to its
// other sites). Aborting can reshuffle the remaining parked queue, so
// the scan restarts until a pass is quiet.
func (c *Cluster) refreshParked(s *site) {
	for {
		s.mu.Lock()
		// A per-call snapshot: the buffer escapes the site lock, so it
		// cannot be site-owned scratch (concurrent refreshers would
		// race); an empty hub — the fast path — allocates nothing.
		ids := s.hub.AppendIDs(make([]core.TxnID, 0, s.hub.Len()))
		s.mu.Unlock()
		aborted := false
		for _, id := range ids {
			s.mu.Lock()
			if !s.hub.Parked(id) {
				s.mu.Unlock()
				continue // granted or aborted meanwhile; its owner observes
			}
			edges := s.edges(id)
			cycle := false
			c.mu.Lock()
			if t := c.reg.get(id); t != nil {
				if len(edges) > 0 {
					t.anyEdges.Store(true)
				}
				c.mirror.Observe(int(s.id), id, c.filterLive(edges))
				cycle = c.mirror.HasCycleFrom(id)
			}
			c.mu.Unlock()
			if cycle {
				// Local abort + wake the owner; it runs the global
				// abort when it receives the message.
				eff := s.hub.Effects()
				if err := s.p.AbortInto(eff, id); err == nil {
					s.hub.Deliver(eff)
				}
				s.hub.Fail(id, core.ReasonDeadlock)
				aborted = true
			}
			s.mu.Unlock()
		}
		if !aborted {
			return
		}
	}
}

// abortEverywhere aborts t at every visited site (skipping skipSite,
// where the local scheduler already finalised it), delivers the
// resulting grants to parked calls, and finalises the transaction at
// the coordinator. reason is recorded on the transaction (Err);
// detail is the human-readable form for the observer.
//
// The abort is failure-tolerant: a down site is skipped (its volatile
// state — the only state an unlogged transaction has there — died with
// it), and a site where the transaction is already held mid-commit is
// revoked instead (the hold's promise is void once the conversation
// cannot complete).
func (c *Cluster) abortEverywhere(t *Txn, skipSite SiteID, reason core.AbortReason, detail string) {
	sids := t.visitedSorted()
	for _, sid := range sids {
		s := c.sites[sid]
		s.mu.Lock()
		s.hub.Withdraw(t.id)
		if sid != skipSite {
			eff := s.hub.Effects()
			if err := s.p.AbortInto(eff, t.id); err == nil {
				s.hub.Deliver(eff)
			} else if !errors.Is(err, fault.ErrSiteDown) {
				// ErrTxnTerminated here usually means a site-local
				// retry abort beat us to it and the local state is
				// already clean — but it is also what a held
				// pseudo-commit answers (a partial commit conversation
				// being unwound after a site failure); those must be
				// revoked, or their operations would gate the site
				// forever. RevokeInto refuses anything not held, so
				// trying it after a refused abort is safe.
				eff = s.hub.Effects()
				if err := s.p.RevokeInto(eff, t.id, reason); err == nil {
					s.hub.Deliver(eff)
				}
			}
		}
		s.forget(t.id)
		s.mu.Unlock()
		c.refreshParked(s)
	}
	t.reason.Store(int32(reason))
	t.state.Store(txAborted)
	c.spans.Record(t.Trace(), telemetry.SpanAbort, uint64(t.id), int32(skipSite), 0, 0, 0)
	c.completeTrace(t)
	close(t.done)
	if c.obs != nil {
		c.obs.Aborted(t.id, detail)
	}
	c.finalizeTxn(t)
}

// releaseAt lands the real commit at every site t visited and
// delivers the unblocked grants. A down site is skipped: the commit
// decision is in the log and the site's prepared record survives the
// crash, so recovery redoes the transaction there (presumed abort's
// counterpart — logged outcomes are re-released); its release ack
// arrives when its restart redoes the commit.
func (c *Cluster) releaseAt(t *Txn) {
	ttc := t.Trace()
	for _, sid := range t.visitedSorted() {
		c.step(DuringReleaseCascade, t.id, sid)
		c.spans.Record(ttc, telemetry.SpanRelease, uint64(t.id), int32(sid), 0, 0, 0)
		s := c.sites[sid]
		s.mu.Lock()
		eff := s.hub.Effects()
		err := s.p.ReleaseInto(eff, t.id)
		if err == nil {
			s.hub.Deliver(eff)
		} else if !c.siteFailure(err) {
			// On a fault-tolerant cluster, ErrSiteDown means the site
			// crashed mid-release and ErrUnknownTxn that it crashed and
			// already recovered — either way the logged commit is (or
			// was) redone from the prepared record. Anywhere else a
			// release failure means the coordinator's dependency
			// accounting is wrong — surface loudly.
			s.mu.Unlock()
			panic(fmt.Sprintf("dist: release of T%d at site %d: %v", t.id, sid, err))
		}
		s.forget(t.id)
		s.mu.Unlock()
		if err == nil {
			c.ackRelease(t.id, sid)
		}
		c.refreshParked(s)
	}
}

// finalizeTxn finalises one globally terminated transaction: it leaves
// the registry (its shard only), and — only if it ever grew union-graph
// state — its mirror node is removed with the release cascade run. A
// transaction that never had a dependency edge in either direction
// (the sharded fast path) skips the union-graph domain entirely: after
// Begin it never takes the coordinator mutex at all.
//
// The unregister-then-remove order is load-bearing: unregister reads
// the mirrored mark inside the registry shard's critical section, and
// any concurrent filterLive that saw the transaction alive set that
// mark under the same shard lock while holding c.mu — so either the
// mark is visible here (and cascade's RemoveTxn, serialised after the
// observer by c.mu, cleans the edge) or the observer saw the
// unregister and dropped the edge. No stale edge survives either way.
func (c *Cluster) finalizeTxn(t *Txn) {
	_, mirrored := c.reg.unregister(t.id)
	c.maybeDrained()
	if mirrored {
		c.cascade([]core.TxnID{t.id})
	}
}

// cascade removes globally terminated transactions from the mirror
// and cascades: any held transaction whose global dependency set
// drains is released at its sites, which may in turn drain others.
// Site-level finalisation always precedes mirror removal, so by the
// time a dependant is selected here its local out-degrees are already
// zero and Release cannot fail. Each round's commit decisions are
// forced as one group before any of its releases start. Under an
// eager-subtree policy the whole drained subtree is computed in one
// critical section instead of one round per chain level.
func (c *Cluster) cascade(ids []core.TxnID) {
	if c.policy != nil && c.policy.EagerSubtree() {
		c.cascadeEager(ids)
		return
	}
	for len(ids) > 0 {
		var ready []*Txn
		c.mu.Lock()
		for _, id := range ids {
			for _, d := range c.mirror.RemoveTxn(id) {
				dt := c.reg.get(d)
				if dt != nil && dt.state.Load() == txPseudo && c.mirror.OutDegree(d) == 0 {
					// The commit point: the grouped force below must
					// land before any participant is released, so a
					// crash mid-release can always be redone from the
					// prepared records.
					dt.state.Store(txReleasing)
					c.heldCount--
					ready = append(ready, dt)
				}
			}
		}
		c.logCommitBatch(ready)
		if len(ready) > 0 {
			c.tel.Held.Set(int64(c.heldCount))
			c.tel.ReleaseWidth.Observe(uint64(len(ready)))
		}
		c.mu.Unlock()

		ids = ids[:0]
		for _, dt := range ready {
			c.step(AfterDecisionBeforeRelease, dt.id, noSite)
			c.releaseAt(dt)
			dt.state.Store(txCommitted)
			c.completeTrace(dt)
			close(dt.done)
			if c.obs != nil {
				c.obs.Released(dt.id)
			}
			c.reg.unregister(dt.id)
			ids = append(ids, dt.id)
		}
		c.maybeDrained()
	}
}

// cascadeEager is the eager-subtree variant of cascade: the transitive
// closure of drained held transactions is computed in ONE coordinator
// critical section with ONE grouped decision-log force, by treating
// each newly decided transaction as terminated for the rest of the
// walk. A chain of depth k that the hop-at-a-time cascade would drain
// over k lock rounds and k log forces is decided here in one round.
//
// The ready list comes out in topological order (a dependant is
// selected only after every subtree transaction it depends on was
// removed), and releases run in that order, so each transaction's local
// out-degrees at its sites have drained by the time its own release
// lands — the same invariant the round-based cascade maintains across
// rounds. Edges mirrored onto a ready transaction while its releases
// land are cleaned by the follow-up loop iteration (each released id is
// re-queued), which also drains any dependants those late edges held.
//
// At most one eager cascade runs at a time. Unlike the round-based
// variant — which removes a transaction from the mirror only after its
// release landed, so concurrent cascades compose — the eager variant
// removes at decide time; two interleaved cascades could then release a
// dependant at a shared site ahead of its predecessor's release (the
// local scheduler would still hold the edge and Release would fail).
// A single owner keeps decide order equal to release-landing order per
// site, which is what the simulator's FIFO channels provide by
// construction. Exclusion is a queue hand-off rather than a lock held
// across the releases: a cascade arriving while one runs — from another
// goroutine, or re-entrantly from this one (a step hook crashing a site
// mid-release ends in Crash -> finalizeTxn -> cascade) — appends its
// batch and returns, and the owner's drain loop picks it up.
func (c *Cluster) cascadeEager(ids []core.TxnID) {
	c.eagerMu.Lock()
	c.eagerQueue = append(c.eagerQueue, ids...)
	if c.eagerBusy {
		c.eagerMu.Unlock()
		return
	}
	c.eagerBusy = true
	for len(c.eagerQueue) > 0 {
		batch := c.eagerQueue
		c.eagerQueue = nil
		c.eagerMu.Unlock()
		c.eagerBatch(batch)
		c.eagerMu.Lock()
	}
	c.eagerBusy = false
	c.eagerMu.Unlock()
}

// eagerBatch decides and releases the transitive drained subtree of one
// batch of terminated transactions (see cascadeEager for the exclusion
// protocol that serialises calls).
func (c *Cluster) eagerBatch(ids []core.TxnID) {
	queue := append([]core.TxnID(nil), ids...)
	for len(queue) > 0 {
		var ready []*Txn
		c.mu.Lock()
		for qi := 0; qi < len(queue); qi++ {
			for _, d := range c.mirror.RemoveTxn(queue[qi]) {
				dt := c.reg.get(d)
				if dt != nil && dt.state.Load() == txPseudo && c.mirror.OutDegree(d) == 0 {
					dt.state.Store(txReleasing)
					c.heldCount--
					ready = append(ready, dt)
					queue = append(queue, d)
				}
			}
		}
		c.logCommitBatch(ready)
		if len(ready) > 0 {
			c.pstats.EagerRounds++
			c.pstats.EagerReleased += len(ready)
			c.tel.Held.Set(int64(c.heldCount))
			c.tel.ReleaseWidth.Observe(uint64(len(ready)))
		}
		c.mu.Unlock()

		queue = queue[:0]
		for _, dt := range ready {
			c.step(AfterDecisionBeforeRelease, dt.id, noSite)
			c.releaseAt(dt)
			dt.state.Store(txCommitted)
			c.completeTrace(dt)
			close(dt.done)
			if c.obs != nil {
				c.obs.Released(dt.id)
			}
			c.reg.unregister(dt.id)
			queue = append(queue, dt.id)
		}
		c.maybeDrained()
	}
}

// PolicyStats snapshots the hold policy's decision counters and the
// held set's high-water mark (HeldPeak is maintained policy or not;
// the other counters stay zero without one).
func (c *Cluster) PolicyStats() PolicyStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pstats
}

// PolicyName returns the active hold policy's parseable name, or
// "off" when the cluster holds unboundedly (no policy configured).
func (c *Cluster) PolicyName() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.policy == nil {
		return "off"
	}
	return c.policy.Name()
}

// Telemetry exposes the coordinator's live instrument block for
// lock-free reads (/metrics scrapes, sccbench snapshots).
func (c *Cluster) Telemetry() *telemetry.DistMetrics { return &c.tel }

// MirrorEdges reports the dependency mirror's current edge count,
// taken under the coordinator mutex.
func (c *Cluster) MirrorEdges() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mirror.EdgeCount()
}

// ---- Crash-stop fault handling (Config.FaultTolerant clusters) ----

// SiteDown reports whether the site is currently crashed (always false
// on a plain cluster).
func (c *Cluster) SiteDown(id SiteID) bool {
	s := c.sites[id]
	return s.cr != nil && s.cr.Down()
}

// Crash fails the site: its scheduler's volatile state is dropped
// atomically, subsequent calls against it return fault.ErrSiteDown,
// every request parked at it is woken with a ReasonSiteFailed verdict,
// the site's contribution to the mirrored union graph is purged, and
// every in-flight transaction that touched the site is doomed — active
// and blocked ones abort with ErrSiteFailed when their owner next
// drives them (or immediately, if parked here), held pseudo-commits
// whose outcome was never logged are revoked at the surviving sites
// (presumed abort). Held transactions whose commit is already logged
// are untouched: their release skips the down site and recovery redoes
// them there.
func (c *Cluster) Crash(id SiteID) error {
	s := c.sites[id]
	s.mu.Lock()
	if s.cr == nil {
		s.mu.Unlock()
		return ErrNotFaultTolerant
	}
	if err := s.cr.Crash(); err != nil {
		s.mu.Unlock()
		return err
	}
	touched := make([]*Txn, 0, len(s.txns))
	for _, t := range s.txns {
		touched = append(touched, t)
	}
	clear(s.txns)
	// Wake everyone parked at the dead site with the failure verdict;
	// their owners run the global abort.
	s.hub.FailAll(core.ReasonSiteFailed)
	s.mu.Unlock()

	c.tel.Crashes.Inc()
	c.mu.Lock()
	c.mirror.DropSite(int(id))
	var revoke []*Txn
	for _, t := range touched {
		t.doomed.Store(true)
		// Only an unlogged held transaction can still be revoked; a
		// txReleasing one passed its commit point (decision logged) and
		// must land everywhere, crash or not.
		if t.state.CompareAndSwap(txPseudo, txRevoking) {
			c.heldCount--
			revoke = append(revoke, t)
		}
	}
	c.tel.Held.Set(int64(c.heldCount))
	c.mu.Unlock()
	for _, t := range revoke {
		c.revokeEverywhere(t, id, core.ReasonSiteFailed)
	}
	return nil
}

// revokeEverywhere unwinds a held pseudo-committed transaction: the
// hold is revoked at every surviving visited site, the transaction ends
// aborted with reason, and its mirror node is removed (possibly
// cascading releases of transactions that depended on it —
// recoverability means this abort does not cascade into them). Two
// callers: the crash handler (skip the crashed site, ReasonSiteFailed)
// and the hold policy's shed path (no site to skip, ReasonShed). The
// caller has already moved the transaction out of txPseudo under the
// coordinator lock, so the release cascade cannot select it
// concurrently.
func (c *Cluster) revokeEverywhere(t *Txn, crashed SiteID, reason core.AbortReason) {
	for _, sid := range t.visitedSorted() {
		s := c.sites[sid]
		s.mu.Lock()
		if sid != crashed {
			eff := s.hub.Effects()
			if err := s.p.RevokeInto(eff, t.id, reason); err == nil {
				s.hub.Deliver(eff)
			}
			// fault.ErrSiteDown: another site crashed too; its volatile
			// hold died with it and its prepared record will be
			// presumed aborted at restart.
		}
		s.forget(t.id)
		s.mu.Unlock()
		c.refreshParked(s)
	}
	t.reason.Store(int32(reason))
	t.state.Store(txAborted)
	c.spans.Record(t.Trace(), telemetry.SpanAbort, uint64(t.id), int32(crashed), 0, 0, 0)
	c.completeTrace(t)
	close(t.done)
	if c.obs != nil {
		c.obs.Aborted(t.id, reason.String())
	}
	c.finalizeTxn(t)
}

// Restart brings a crashed site back: a fresh scheduler is seeded from
// the site's durable committed snapshots, prepared (in-doubt)
// transactions are resolved against the decision log — logged commits
// are redone into the committed state, the rest presumed aborted — and
// the site starts accepting transactions again (re-registration). The
// recovered site then re-exports its dependency edges into the
// coordinator's mirror; a freshly recovered site holds no live
// transactions, so today this re-export is empty, but the walk keeps
// re-registration correct if recovery ever reinstates holds.
func (c *Cluster) Restart(id SiteID) (fault.RecoveryReport, error) {
	s := c.sites[id]
	s.mu.Lock()
	if s.cr == nil {
		s.mu.Unlock()
		return fault.RecoveryReport{}, ErrNotFaultTolerant
	}
	rep, err := s.cr.Restart()
	if err != nil {
		s.mu.Unlock()
		return rep, err
	}
	// Rebuild the mirror's view of this site from the recovered
	// participant's own exports.
	for txid := range s.txns {
		edges := s.edges(txid)
		c.mu.Lock()
		if t := c.reg.get(txid); t != nil {
			if len(edges) > 0 {
				t.anyEdges.Store(true)
			}
			c.mirror.Observe(int(id), txid, c.filterLive(edges))
		}
		c.mu.Unlock()
	}
	s.mu.Unlock()
	c.tel.Restarts.Inc()
	// A redo is this site's release ack: the logged commit is now in
	// its durable base, so the decision can be truncated once every
	// other participant has confirmed too. The redo span re-derives its
	// context from the sampler — the transaction itself may have been
	// unregistered before the crash.
	for _, txid := range rep.Redone {
		c.spans.Record(c.TraceContextOf(txid), telemetry.SpanRedo, uint64(txid), int32(id), 0, 0, 0)
		c.ackRelease(txid, id)
	}
	return rep, nil
}

// CrashSite and RestartSite are the int-typed adapters the workload
// chaos harness drives (it speaks core.Store plus these, without
// importing dist).

// CrashSite is Crash with an untyped site index.
func (c *Cluster) CrashSite(site int) error { return c.Crash(SiteID(site)) }

// RestartSite is Restart with an untyped site index, discarding the
// recovery report.
func (c *Cluster) RestartSite(site int) error {
	_, err := c.Restart(SiteID(site))
	return err
}
