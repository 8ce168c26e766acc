package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/adt"
	"repro/internal/compat"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/fault"
	"repro/internal/history"
	"repro/internal/telemetry"
	"repro/internal/wire"
	"repro/internal/workload"
)

const numSites = 4

// spec is one workload: what the clients draw, how the program under
// it is deployed, and which checks its outputs admit.
type spec struct {
	name string
	// why is the reason the workload is in the benchmark (README.md
	// gives the long form).
	why string
	gen workload.Generator
	// clients is the closed loop's size. In process it is one per CPU of
	// the machine the benchmark was tuned on. Over loopback one client
	// leaves that machine's second CPU to the coordinator and the
	// daemons. With two, each client's round trips queued behind the
	// other's, and the p99 commit wait measured how that queueing met
	// the host's scheduling: over six seeds run alternately with each
	// client count, it spread 18% with two clients and 4.5% with one.
	clients int
	// every is the trace sampling stride (spans of transactions whose
	// id is a multiple of it are kept).
	every uint64
	// maxTraced caps the traced run's logical transactions, which
	// bounds the memory its spans and histories take.
	maxTraced int
	retryHeld bool
	// pushes marks the all-push workloads, whose committed stacks must
	// hold exactly the committed pushes.
	pushes bool
	// stagger, on a pushes workload, pre-fills stack i with (i-1)*stagger
	// elements at set-up. Uniform traffic grows every stack at the same
	// rate, so without it all stacks cross their slice-growth thresholds
	// together and the live heap jumps by a quarter between runs that
	// differ by a few percent in throughput. Over loopback the pushes go
	// to the daemons' backends directly (see prefillBackends).
	stagger int
	// clientLayer is the layer the client's calls enter.
	clientLayer layer
	// flush names the decision-log flush policy.
	flush  string
	deploy func(s *spec, tr *tracer) (*deployment, error)
}

var specs = []*spec{
	{
		name:        "partitioned-rw",
		clients:     2,
		why:         "sharded fast path: pages in process, writes block reads, core does most of the work",
		gen:         workload.Sharded{Inner: workload.ReadWrite{DBSize: 4096, WriteProb: 0.3}, Sites: numSites, CrossProb: 0.05},
		every:       16,
		maxTraced:   60000,
		clientLayer: layerDist,
		flush:       "none (plain cluster, no decision log)",
		deploy:      deployInProcess,
	},
	{
		name:        "hot-pushes",
		clients:     2,
		why:         "the paper's mechanism in process: recoverable pushes, commit dependencies, holds, decide pipeline",
		gen:         workload.Sharded{Inner: workload.Pushes{DBSize: 64}, Sites: numSites, CrossProb: 0.4},
		every:       16,
		maxTraced:   60000,
		retryHeld:   true,
		pushes:      true,
		stagger:     64,
		clientLayer: layerDist,
		flush:       "MemLog (in memory)",
		deploy:      deployInProcess,
	},
	{
		name:        "loopback-pushes",
		clients:     1,
		why:         "the wire tax: 2 site daemons, a coordinator with a FileLog and a client, over loopback TCP",
		gen:         workload.Sharded{Inner: workload.Pushes{DBSize: 256}, Sites: numSites, CrossProb: 0.1},
		every:       1,
		maxTraced:   20000,
		pushes:      true,
		stagger:     2,
		clientLayer: layerWire,
		flush:       "FileLog sync=false (a write per decision, no fsync)",
		deploy:      deployLoopback,
	},
}

func specByName(name string) *spec {
	for _, s := range specs {
		if s.name == name {
			return s
		}
	}
	return nil
}

// deployment is one set-up program under load.
type deployment struct {
	// store is what the clients drive (timed when traced).
	store beginner
	// cluster is the coordinator's cluster.
	cluster *dist.Cluster
	// log is the decision log (nil on a plain cluster).
	log fault.Log
	// sites are the participant backends, in this process either way.
	sites []dist.SiteBackend
	// committedLen reports an object's committed stack depth.
	committedLen func(core.ObjectID) (int, error)
	// prefilled counts the pushes set-up committed per object id.
	prefilled []uint64
	// wire is the coordinator's transport instruments (loopback only).
	wire *telemetry.WireMetrics
	// histories are the per-site recorders (traced partitioned-rw).
	histories []*history.Recorder
	close     func()
}

func (d *deployment) stats() core.Stats {
	var st core.Stats
	for _, s := range d.sites {
		st.Add(s.StatsSnapshot())
	}
	return st
}

// deployInProcess builds a 4-site in-process cluster: plain for pages,
// fault-tolerant with a MemLog and the eager policy for pushes. The
// backends and the log are built here, as dist would build them, and
// wrapped when traced; traced pages also record each site's history.
func deployInProcess(s *spec, tr *tracer) (*deployment, error) {
	d := &deployment{close: func() {}}
	cfg := dist.Config{Sites: numSites, Backends: make([]dist.SiteBackend, numSites)}
	if s.pushes {
		mem := fault.NewMemLog()
		var log fault.Log = mem
		if tr != nil {
			log = wrapLog(mem, tr)
		}
		cfg.FaultTolerant, cfg.Log, cfg.Policy = true, log, dist.EagerRelease{}
	}
	for i := range cfg.Backends {
		var b dist.SiteBackend
		if s.pushes {
			cr, err := fault.New(core.Options{}, cfg.Log)
			if err != nil {
				return nil, err
			}
			b = cr
		} else {
			var opts core.Options
			if tr != nil {
				rec := history.NewRecorder()
				d.histories = append(d.histories, rec)
				opts.Recorder = rec
			}
			b = core.NewScheduler(opts)
		}
		if tr != nil {
			b = wrapSite(b, tr)
		}
		cfg.Backends[i] = b
	}
	c, err := dist.NewWithConfig(cfg)
	if err != nil {
		return nil, err
	}
	d.cluster, d.log = c, c.DecisionLog()
	for i := 0; i < numSites; i++ {
		d.sites = append(d.sites, c.Site(dist.SiteID(i)))
	}
	d.committedLen = func(obj core.ObjectID) (int, error) {
		st, err := c.Site(c.SiteOf(obj)).CommittedState(obj)
		if err != nil {
			return 0, err
		}
		l, ok := st.(interface{ Len() int })
		if !ok {
			return 0, fmt.Errorf("object %d: state %T has no length", obj, st)
		}
		return l.Len(), nil
	}
	c.SetFactory(s.gen.Factory())
	if err := registerAll(c.Register, s.gen.Factory(), s.gen.Size(), 1); err != nil {
		return nil, err
	}
	if s.stagger > 0 {
		if d.prefilled, err = prefill(c, s.gen.Size(), s.stagger, s.clients); err != nil {
			return nil, err
		}
	}
	d.store = c
	if tr != nil {
		d.store = newTracedStore(c, tr, s.clientLayer)
	}
	return d, nil
}

// prefill pushes (i-1)*stagger elements onto stack i, in transactions
// of at most 64 pushes on one object, and returns the pushes committed
// per object id. The objects are split between par goroutines, so one
// goroutine's wait for a real commit overlaps the other's work.
func prefill(st beginner, size, stagger, par int) ([]uint64, error) {
	out := make([]uint64, size+1)
	err := split(par, size, func(i int) error {
		obj := core.ObjectID(i)
		for left := (i - 1) * stagger; left > 0; {
			n := min(left, 64)
			t := st.Begin()
			for j := 0; j < n; j++ {
				if _, err := t.Do(obj, adt.Op{Name: adt.StackPush, Arg: j, HasArg: true}); err != nil {
					return fmt.Errorf("prefill object %d: %w", obj, err)
				}
			}
			if _, err := t.Commit(); err != nil {
				return fmt.Errorf("prefill object %d: %w", obj, err)
			}
			<-t.Done()
			if err := t.Err(); err != nil {
				return fmt.Errorf("prefill object %d: %w", obj, err)
			}
			out[i] += uint64(n)
			left -= n
		}
		return nil
	})
	return out, err
}

// prefillBackends does what prefill does, but straight into each
// object's home backend in this process: over loopback every push
// would cost two round trips, and set-up would take seconds. The
// transaction ids start far above any the coordinator hands out.
func prefillBackends(home func(core.ObjectID) dist.SiteBackend, size, stagger int) ([]uint64, error) {
	out := make([]uint64, size+1)
	id := core.TxnID(1 << 40)
	var eff core.Effects
	for i := 1; i <= size; i++ {
		obj := core.ObjectID(i)
		b := home(obj)
		for left := (i - 1) * stagger; left > 0; {
			n := min(left, 64)
			id++
			if err := b.Begin(id); err != nil {
				return nil, fmt.Errorf("prefill object %d: %w", obj, err)
			}
			for j := 0; j < n; j++ {
				eff.Reset()
				dec, err := b.RequestInto(&eff, id, obj, adt.Op{Name: adt.StackPush, Arg: j, HasArg: true})
				if err == nil && dec.Outcome != core.Executed {
					err = fmt.Errorf("push not executed: %v", dec.Outcome)
				}
				if err != nil {
					return nil, fmt.Errorf("prefill object %d: %w", obj, err)
				}
			}
			eff.Reset()
			st, err := b.CommitInto(&eff, id)
			if err == nil && st != core.Committed {
				err = fmt.Errorf("commit status %v", st)
			}
			if err != nil {
				return nil, fmt.Errorf("prefill object %d: %w", obj, err)
			}
			b.Forget(id)
			out[i] += uint64(n)
			left -= n
		}
	}
	return out, nil
}

// scratchDir is where the loopback decision logs live, inside the
// working directory the benchmark runs from.
const scratchDir = ".bench_build/tmp"

// deployLoopback starts 2 site daemons of 2 sites each, a coordinator
// over them with a FileLog (no fsync) and the eager policy, and dials
// one client connection, all in this process over loopback TCP.
func deployLoopback(s *spec, tr *tracer) (d *deployment, err error) {
	var closers []func()
	d = &deployment{close: func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}}
	defer func() {
		if err != nil {
			d.close()
		}
	}()
	wl := fmt.Sprintf("pushes:%d", s.gen.Size())
	var daemons []wire.DaemonSpec
	bare := make([]dist.SiteBackend, numSites)
	for dmn := 0; dmn < 2; dmn++ {
		sites := map[uint16]dist.SiteBackend{}
		var ids []uint16
		for sid := uint16(2 * dmn); sid < uint16(2*dmn+2); sid++ {
			cr, ferr := fault.New(core.Options{}, fault.NewMemLog())
			if ferr != nil {
				return nil, ferr
			}
			var b dist.SiteBackend = cr
			if tr != nil {
				b = wrapSite(cr, tr)
			}
			bare[sid] = cr
			sites[sid] = b
			ids = append(ids, sid)
			d.sites = append(d.sites, b)
		}
		srv, serr := wire.ServeSites(wire.SiteServerConfig{Addr: "127.0.0.1:0", Sites: sites, Workload: wl})
		if serr != nil {
			return nil, serr
		}
		closers = append(closers, srv.Close)
		daemons = append(daemons, wire.DaemonSpec{Listen: srv.Addr(), Sites: ids})
	}
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(scratchDir, "log-")
	if err != nil {
		return nil, err
	}
	closers = append(closers, func() { os.RemoveAll(dir) })
	flog, err := fault.OpenFileLog(filepath.Join(dir, "decisions.log"), false)
	if err != nil {
		return nil, err
	}
	var log fault.Log = flog
	if tr != nil {
		log = wrapLog(flog, tr)
	}
	co, err := wire.StartCoordinator(wire.CoordinatorConfig{
		ClientAddr: "127.0.0.1:0",
		Log:        log,
		CloseLog:   flog.Close,
		Daemons:    daemons,
		Workload:   wl,
		DialWait:   5 * time.Second,
		Policy:     dist.EagerRelease{},
	})
	if err != nil {
		_ = flog.Close()
		return nil, err
	}
	closers = append(closers, func() { _ = co.Close() })
	cl, err := wire.Dial(co.Addr(), 5*time.Second)
	if err != nil {
		return nil, err
	}
	closers = append(closers, func() { _ = cl.Close() })
	// One goroutine per client, so round trips overlap as under load.
	if err := registerAll(cl.Register, s.gen.Factory(), s.gen.Size(), s.clients); err != nil {
		return nil, err
	}
	if s.stagger > 0 {
		home := func(obj core.ObjectID) dist.SiteBackend { return bare[co.Cluster.SiteOf(obj)] }
		if d.prefilled, err = prefillBackends(home, s.gen.Size(), s.stagger); err != nil {
			return nil, err
		}
	}
	d.cluster, d.log, d.wire = co.Cluster, log, co.WireMetrics()
	d.committedLen = func(obj core.ObjectID) (int, error) {
		_, n, err := cl.StateLen(obj, true)
		return n, err
	}
	d.store = cl
	if tr != nil {
		d.store = newTracedStore(cl, tr, s.clientLayer)
	}
	return d, nil
}

// registerAll materialises objects 1..n at their home sites from par
// goroutines.
func registerAll(reg func(core.ObjectID, adt.Type, compat.Classifier) error, factory func(core.ObjectID) (adt.Type, compat.Classifier), n, par int) error {
	return split(par, n, func(i int) error {
		typ, class := factory(core.ObjectID(i))
		return reg(core.ObjectID(i), typ, class)
	})
}

// split runs fn(1..n) on par goroutines, goroutine w taking every i
// with (i-1) % par == w in order, and returns the first error. A
// goroutine stops at its first error.
func split(par, n int, fn func(i int) error) error {
	errs := make(chan error, par)
	for w := 0; w < par; w++ {
		go func() {
			for i := 1 + w; i <= n; i += par {
				if err := fn(i); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	var first error
	for w := 0; w < par; w++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}
