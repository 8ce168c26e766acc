package main

import (
	"errors"
	"math/rand"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

// loadConfig parameterises one closed-loop run: clients goroutines
// each draw a transaction, drive it to Committed or PseudoCommitted
// (retrying aborts), then poll their held handles, until the deadline
// or the transaction cap. The clock then waits for every held
// pseudo-commit to really commit.
type loadConfig struct {
	store    beginner
	src      workload.Source
	seed     int64
	clients  int
	duration time.Duration
	// maxTxns caps logical transactions per run (0: no cap).
	maxTxns int
	// retryHeld re-runs a transaction whose commit conversation or held
	// pseudo-commit ended in a retryable abort, as a fresh attempt of
	// the same logical transaction.
	retryHeld bool
	// tr, when set, marks the run as traced: logical transactions whose
	// every attempt is sampled keep a record for attribution.
	tr *tracer
}

// txnRecord is one logical transaction of a traced run: the ids of its
// attempts and the window the caller waited, first Begin to the Commit
// that returned Committed or PseudoCommitted.
type txnRecord struct {
	ids        []core.TxnID
	start, end int64
}

// loadResult is what the clients observed.
type loadResult struct {
	elapsed time.Duration
	// lat is first Begin to Commit return per logical transaction;
	// real is first Begin to the real commit.
	lat, real []int64

	logical    uint64 // logical transactions started
	committed  uint64 // logical transactions whose promise was honoured
	failed     uint64 // non-retryable error or restart cap
	attempts   uint64 // Begin calls
	pseudo     uint64 // Commit returned PseudoCommitted
	heldAborts uint64 // held pseudo-commits revoked and re-run
	// pushes counts committed steps per object id.
	pushes  []uint64
	records []txnRecord
	// errs keeps the first few non-retryable errors for the report.
	errs []error
}

type heldTxn struct {
	t     core.Txn
	steps []workload.Step
	start int64
	ids   []core.TxnID
}

type client struct {
	cfg     *loadConfig
	epoch   time.Time
	draw    *rand.Rand // the transaction stream: depends on the seed alone
	backoff *rand.Rand // retry jitter, kept apart so aborts never shift the stream
	held    []heldTxn
	res     loadResult
}

func (c *client) now() int64 { return int64(time.Since(c.epoch)) }

func (c *client) fail(err error) {
	c.res.failed++
	if len(c.res.errs) < 3 {
		c.res.errs = append(c.res.errs, err)
	}
}

// run drives one logical transaction until Commit returns Committed or
// PseudoCommitted. resubmit marks the re-run of a revoked promise: the
// caller already had its answer, so no commit-wait sample is taken.
func (c *client) run(steps []workload.Step, start int64, ids []core.TxnID, resubmit bool) {
attempts:
	for attempt := 0; ; attempt++ {
		if attempt >= core.RunMaxAttempts {
			c.fail(errors.New("transaction exceeded the restart cap"))
			return
		}
		if attempt > 0 {
			shift := attempt
			if shift > core.RunBackoffShift {
				shift = core.RunBackoffShift
			}
			time.Sleep(time.Duration(1+c.backoff.Intn(1<<shift)) * core.RunBackoffBase)
		}
		c.res.attempts++
		t := c.cfg.store.Begin()
		if c.cfg.tr != nil {
			ids = append(ids, t.ID())
		}
		for _, st := range steps {
			if _, err := t.Do(st.Object, st.Op); err != nil {
				if errors.Is(err, core.ErrTxnAborted) {
					continue attempts
				}
				c.fail(err)
				_ = t.Abort() // release what it holds; the failure is already counted
				return
			}
		}
		status, err := t.Commit()
		if err != nil {
			var ab *core.ErrAborted
			if (c.cfg.retryHeld || errors.Is(err, core.ErrHoldShed)) && errors.As(err, &ab) && ab.Retryable() {
				continue attempts
			}
			c.fail(err)
			_ = t.Abort()
			return
		}
		end := c.now()
		if !resubmit {
			c.res.lat = append(c.res.lat, end-start)
			c.keepRecord(ids, start, end)
		}
		if status == core.PseudoCommitted {
			c.res.pseudo++
			c.held = append(c.held, heldTxn{t: t, steps: steps, start: start, ids: ids})
			return
		}
		c.committed(steps, start, end)
		return
	}
}

func (c *client) keepRecord(ids []core.TxnID, start, end int64) {
	if c.cfg.tr == nil {
		return
	}
	for _, id := range ids {
		if !c.cfg.tr.sampled(id) {
			return
		}
	}
	c.res.records = append(c.res.records, txnRecord{ids: ids, start: start, end: end})
}

func (c *client) committed(steps []workload.Step, start, end int64) {
	c.res.committed++
	c.res.real = append(c.res.real, end-start)
	for _, st := range steps {
		c.res.pushes[st.Object]++
	}
}

// poll settles every held handle whose real outcome is known; with
// block it waits for all of them.
func (c *client) poll(block bool) {
	for i := 0; i < len(c.held); {
		h := c.held[i]
		if block {
			<-h.t.Done()
		} else {
			select {
			case <-h.t.Done():
			default:
				i++
				continue
			}
		}
		last := len(c.held) - 1
		c.held[i] = c.held[last]
		c.held = c.held[:last]
		c.settle(h)
	}
}

func (c *client) settle(h heldTxn) {
	err := h.t.Err()
	if err == nil {
		c.committed(h.steps, h.start, c.now())
		return
	}
	var ab *core.ErrAborted
	if c.cfg.retryHeld && errors.As(err, &ab) && ab.Retryable() {
		c.res.heldAborts++
		c.run(h.steps, h.start, h.ids, true)
		return
	}
	c.fail(err)
}

// runLoad runs the closed loop and merges what every client saw.
func runLoad(cfg loadConfig, epoch time.Time) loadResult {
	deadline := time.Now().Add(cfg.duration)
	perClient := 0
	if cfg.maxTxns > 0 {
		perClient = (cfg.maxTxns + cfg.clients - 1) / cfg.clients
	}
	clients := make([]*client, cfg.clients)
	start := time.Now()
	var wg sync.WaitGroup
	for w := range clients {
		c := &client{
			cfg:     &cfg,
			epoch:   epoch,
			draw:    rand.New(rand.NewSource(cfg.seed + int64(w)*7919)),
			backoff: rand.New(rand.NewSource(^(cfg.seed + int64(w)*7919))),
			res:     loadResult{pushes: make([]uint64, cfg.src.Gen.Size()+1)},
		}
		clients[w] = c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && (perClient == 0 || int(c.res.logical) < perClient) {
				steps := c.cfg.src.Draw(c.draw)
				c.res.logical++
				c.run(steps, c.now(), nil, false)
				c.poll(false)
			}
			for len(c.held) > 0 {
				c.poll(true)
			}
		}()
	}
	wg.Wait()
	out := loadResult{elapsed: time.Since(start), pushes: make([]uint64, cfg.src.Gen.Size()+1)}
	for _, c := range clients {
		r := &c.res
		out.lat = append(out.lat, r.lat...)
		out.real = append(out.real, r.real...)
		out.logical += r.logical
		out.committed += r.committed
		out.failed += r.failed
		out.attempts += r.attempts
		out.pseudo += r.pseudo
		out.heldAborts += r.heldAborts
		for i, n := range r.pushes {
			out.pushes[i] += n
		}
		out.records = append(out.records, r.records...)
		out.errs = append(out.errs, r.errs...)
	}
	return out
}
