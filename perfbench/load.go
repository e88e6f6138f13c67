package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/internal/metrics"
	"repro/internal/netproto"
	"repro/internal/request"
	"repro/internal/storage"
	"repro/internal/workload"
)

// ledger is the audit's expectation: per row, the preloaded committed writes
// plus every acknowledged committed write. Transactions whose outcome the
// client could not learn are resolved against the scheduler after the run.
type ledger struct {
	mu        sync.Mutex
	want      []int64
	undecided []request.Transaction
}

func newLedger(base []int64) *ledger {
	return &ledger{want: append([]int64(nil), base...)}
}

func (l *ledger) commit(tx request.Transaction) {
	l.mu.Lock()
	for _, r := range tx.Requests {
		if r.Op == request.Write {
			l.want[r.Object]++
		}
	}
	l.mu.Unlock()
}

// settle records what the client learnt of a transaction's outcome.
func (l *ledger) settle(tx request.Transaction, o outcome) {
	switch {
	case o.err != nil:
		l.mu.Lock()
		l.undecided = append(l.undecided, tx)
		l.mu.Unlock()
	case !o.aborted:
		l.commit(tx)
	}
}

// outcome is what one client saw of one transaction.
type outcome struct {
	reqs    []time.Duration // Submit round trips, in order
	aborted bool            // deadlock victim
	busy    int             // BUSY replies
	err     error           // BUSY, timeout or transport error
}

// runTxn submits a transaction's requests in order until the first failure.
func runTxn(c *netproto.MuxClient, tx request.Transaction, due time.Time, rec *recorder, parent int64) outcome {
	var o outcome
	id := rec.newID()
	for _, r := range tx.Requests {
		t := time.Now()
		_, err := c.Submit(r)
		d := time.Since(t)
		rec.span("netproto.Submit", id, tx.TA, t, t.Add(d))
		o.reqs = append(o.reqs, d)
		if err == nil {
			continue
		}
		if errors.Is(err, netproto.ErrAborted) {
			o.aborted = true
		} else {
			if errors.Is(err, netproto.ErrBusy) {
				o.busy++
			}
			o.err = err
		}
		break
	}
	rec.spanID(id, "txn", parent, tx.TA, due, time.Now())
	return o
}

// sliceWidth divides the measured window into slices. Each end-to-end
// figure is computed per slice and reported as the median over the slices,
// so a few seconds in which the shared host runs slow move it little.
const sliceWidth = time.Second

// slice holds the observations of transactions that ended within one slice.
type slice struct {
	txnMS                     []float64 // committed transactions, from intended start
	reqUS                     []float64 // every Submit round trip
	commits, aborted, errored int
	busy, requests            int
}

// samples collects the measured window's observations. Buffers are sized
// before the window so the harness does not grow them while measuring.
type samples struct {
	mu     sync.Mutex
	start  time.Time       // window start
	slices []slice         // by end time
	cpu    []time.Duration // process CPU at each slice boundary
	lateUS []float64       // open-loop generator lateness
}

func newSamples(start time.Time, window time.Duration, txnsPerSlice, reqsPerTxn int) *samples {
	s := &samples{start: start, slices: make([]slice, window/sliceWidth)}
	for i := range s.slices {
		s.slices[i].txnMS = make([]float64, 0, txnsPerSlice)
		s.slices[i].reqUS = make([]float64, 0, txnsPerSlice*reqsPerTxn)
	}
	s.lateUS = make([]float64, 0, txnsPerSlice*len(s.slices))
	return s
}

// add records a transaction that ended at end; those ending outside the
// window are not measured.
func (s *samples) add(o outcome, lat time.Duration, end time.Time) {
	k := end.Sub(s.start)
	if k < 0 || int(k/sliceWidth) >= len(s.slices) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sl := &s.slices[k/sliceWidth]
	for _, d := range o.reqs {
		sl.reqUS = append(sl.reqUS, us(d))
	}
	sl.requests += len(o.reqs)
	sl.busy += o.busy
	switch {
	case o.err != nil:
		sl.errored++
	case o.aborted:
		sl.aborted++
	default:
		sl.commits++
		sl.txnMS = append(sl.txnMS, ms(lat))
	}
}

func (s *samples) late(d time.Duration) {
	s.mu.Lock()
	s.lateUS = append(s.lateUS, us(d))
	s.mu.Unlock()
}

// total sums the counts of every slice.
func (s *samples) total() slice {
	var t slice
	for _, sl := range s.slices {
		t.commits += sl.commits
		t.aborted += sl.aborted
		t.errored += sl.errored
		t.busy += sl.busy
		t.requests += sl.requests
	}
	return t
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// counters is the state of every exported counter at one instant.
type counters struct {
	cpu         time.Duration
	mem         runtime.MemStats
	snap        metrics.Snapshot
	shardRounds []int
	syncs       int64
	jbytes      int64
	checkpoints int64
}

func readCounters(st *stack, shards int) counters {
	c := counters{cpu: processCPU(), snap: st.mw.Collector().Snapshot()}
	runtime.ReadMemStats(&c.mem)
	for p := 0; p < shards && shards > 1; p++ {
		c.shardRounds = append(c.shardRounds, len(st.mw.Collector().PartitionRounds(p)))
	}
	if d := st.srv.Durability(); d != nil {
		c.syncs, c.jbytes, c.checkpoints = d.Syncs.Load(), d.BytesJournaled.Load(), d.Checkpoints.Load()
	}
	return c
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// phase is everything one run measured.
type phase struct {
	setups, opens      []time.Duration
	replayed           int64
	s                  *samples
	begin, end         counters             // at the window's start and end
	rounds             []metrics.RoundStats // window's merged per-round records
	shardRounds        [][]metrics.RoundStats
	roundsRetained     int
	heapMB             float64
	stats              stats
	pingUS, snapUS     []float64
	statsUS            []float64
	attempted, errored int
	auditErr           error
}

// run sets a stack up, drives the workload for a warm-up and the measured
// window, and audits the final state. rec is nil for the untraced run.
func (b *bench) run(window time.Duration, rec *recorder) (*phase, error) {
	led := newLedger(b.base)
	st, setups, opens, err := b.setup(rec, led)
	if err != nil {
		return nil, err
	}
	defer st.close()
	p := &phase{setups: setups, opens: opens}
	if d := st.srv.Durability(); d != nil {
		p.replayed = d.ReplayedRecords.Load()
	}
	// The discarded set-up stacks are garbage now; collect them before
	// the load starts rather than in the middle of the window.
	runtime.GC()

	perSlice := int(b.sp.rate * sliceWidth.Seconds())
	if b.sp.closed {
		perSlice = 1000 // above paper-closed's capacity
	}
	start := time.Now()
	warmEnd := start.Add(min(maxWarmup, window/5))
	end := warmEnd.Add(window)
	p.s = newSamples(warmEnd, window, perSlice, b.sp.reads+b.sp.writes+1)

	stopBG := b.background(st, rec, p)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		b.sample(st, p)
	}()
	if b.sp.closed {
		b.closedLoop(st, led, p, end, rec)
	} else {
		b.openLoop(st, led, p, start, end, rec)
	}
	wg.Wait()
	stopBG()

	all := st.mw.Collector().Rounds()
	p.roundsRetained = len(all)
	p.rounds = all[p.begin.snap.Summary.Rounds:p.end.snap.Summary.Rounds]
	for i, n := range p.begin.shardRounds {
		p.shardRounds = append(p.shardRounds, st.mw.Collector().PartitionRounds(i)[n:p.end.shardRounds[i]])
	}
	t := p.s.total()
	p.attempted, p.errored = t.commits+t.aborted+t.errored, t.errored

	// Live heap of the running stack: the harness's sample buffers are
	// summarised by now and dropped first.
	p.summarise()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	p.heapMB = float64(m.HeapAlloc) / (1 << 20)

	p.auditErr = b.audit(st, led)
	if p.auditErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: AUDIT FAILED:", p.auditErr)
	}
	return p, nil
}

// sample reads the counters at the window's start and end and the process
// CPU time at every slice boundary.
func (b *bench) sample(st *stack, p *phase) {
	s := p.s
	time.Sleep(time.Until(s.start))
	p.begin = readCounters(st, b.sp.partitions)
	s.cpu = append(s.cpu, p.begin.cpu)
	for k := 1; k < len(s.slices); k++ {
		time.Sleep(time.Until(s.start.Add(time.Duration(k) * sliceWidth)))
		s.cpu = append(s.cpu, processCPU())
	}
	time.Sleep(time.Until(s.start.Add(time.Duration(len(s.slices)) * sliceWidth)))
	p.end = readCounters(st, b.sp.partitions)
	s.cpu = append(s.cpu, p.end.cpu)
}

// background runs the operator's periodic STATS scrape on the first
// connection and, when tracing, Ping probes on the second and direct
// Collector.Snapshot calls. The returned function stops and waits for them.
func (b *bench) background(st *stack, rec *recorder, p *phase) func() {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var mu sync.Mutex
	every := func(d time.Duration, name string, out *[]float64, f func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(d)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
				}
				t := time.Now()
				if err := f(); err != nil {
					continue
				}
				e := time.Now()
				rec.span(name, 0, 0, t, e)
				if rec != nil {
					mu.Lock()
					*out = append(*out, us(e.Sub(t)))
					mu.Unlock()
				}
			}
		}()
	}
	every(statsEvery, "netproto.Stats", &p.statsUS, func() error { _, err := st.conns[0].Stats(); return err })
	if rec != nil {
		every(pingEvery, "netproto.Ping", &p.pingUS, st.conns[1].Ping)
		every(snapshotEvery, "metrics.Snapshot", &p.snapUS, func() error { st.mw.Collector().Snapshot(); return nil })
	}
	return func() { close(stop); wg.Wait() }
}

// openLoop issues transactions at the spec's rate from start until end, each
// on its own goroutine, and times each from its intended start, so a stall
// also delays the transactions due behind it. Arrivals are evenly spaced;
// the seed picks the rows and the order of each transaction's statements.
func (b *bench) openLoop(st *stack, led *ledger, p *phase, start, end time.Time, rec *recorder) {
	gen, err := workload.NewGenerator(workload.Config{
		Clients: 1, ReadsPerTxn: b.sp.reads, WritesPerTxn: b.sp.writes, Objects: rows, Seed: b.seed,
	})
	if err != nil {
		panic(err) // the specs are fixed and valid
	}
	interval := time.Duration(float64(time.Second) / b.sp.rate)
	var wg sync.WaitGroup
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if !due.Before(end) {
			break
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if !due.Before(p.s.start) {
			p.s.late(time.Since(due))
		}
		tx := gen.NextTransaction()
		tx = renumber(tx, runTA+tx.TA)
		c := st.conns[i%conns]
		wg.Add(1)
		go func() {
			defer wg.Done()
			transact(c, tx, due, led, p.s, rec)
		}()
	}
	wg.Wait()
}

// closedLoop runs the spec's clients until end, each starting its next
// transaction when the previous one ends. An aborted transaction is not
// retried.
func (b *bench) closedLoop(st *stack, led *ledger, p *phase, end time.Time, rec *recorder) {
	cfg := workload.Config{
		Clients: b.sp.clients, ReadsPerTxn: b.sp.reads, WritesPerTxn: b.sp.writes, Objects: rows, Seed: b.seed,
	}
	var wg sync.WaitGroup
	for id := 0; id < b.sp.clients; id++ {
		sess, err := workload.NewSession(cfg, id)
		if err != nil {
			panic(err) // the specs are fixed and valid
		}
		c := st.conns[id%conns]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				due := time.Now()
				if !due.Before(end) {
					return
				}
				tx := sess.NextTransaction()
				tx = renumber(tx, runTA+tx.TA)
				transact(c, tx, due, led, p.s, rec)
			}
		}()
	}
	wg.Wait()
}

// transact runs one measured transaction and records it in the ledger and
// the samples.
func transact(c *netproto.MuxClient, tx request.Transaction, due time.Time, led *ledger, s *samples, rec *recorder) {
	o := runTxn(c, tx, due, rec, 0)
	led.settle(tx, o)
	now := time.Now()
	s.add(o, now.Sub(due), now)
}

// audit checks that every row equals the acknowledged committed writes (plus
// the preloaded state), and for the durable workload that the live table
// equals what storage.Recover rebuilds from the journal after shutdown.
func (b *bench) audit(st *stack, led *ledger) error {
	// Force the undecided transactions to terminate, then ask the
	// scheduler's terminal-outcome record whether they committed.
	for _, tx := range led.undecided {
		st.conns[0].Submit(request.Request{TA: tx.TA, IntraTA: 1 << 20, Op: request.Abort, Object: request.NoObject})
		if res, op, ok := st.mw.TerminalOutcome(tx.TA); ok && op == request.Commit && res.Err == nil {
			led.commit(tx)
		}
	}
	st.stop()
	live := st.srv.Snapshot()
	if err := diffRows("live table vs acknowledged commits", live, led.want); err != nil {
		return err
	}
	if !b.sp.durable {
		return nil
	}
	if err := st.srv.Close(); err != nil {
		return fmt.Errorf("storage close: %w", err)
	}
	st.srv = nil
	rec, err := storage.Recover(st.dir)
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	defer rec.Close()
	return diffRows("live table vs storage.Recover", live, rec.Snapshot())
}

func diffRows(what string, got, want []int64) error {
	bad, first := 0, -1
	for i := range want {
		if got[i] != want[i] {
			if first < 0 {
				first = i
			}
			bad++
		}
	}
	if bad == 0 {
		return nil
	}
	return fmt.Errorf("%s: %d rows differ, first row %d = %d, want %d", what, bad, first, got[first], want[first])
}
