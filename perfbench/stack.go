package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/metrics"
	"repro/internal/netproto"
	"repro/internal/protocol"
	"repro/internal/request"
	"repro/internal/scheduler"
	"repro/internal/storage"
	"repro/internal/workload"
)

// Transaction-number spaces: the preloaded journal uses 1..preloadTxns, the
// set-up transaction setupTA and the measured load runTA+n, so no number is
// reused across a recovery.
const (
	setupTA = 1 << 40
	runTA   = 1 << 32
)

// bench holds what every run of one workload shares: the spec, the seed and,
// for the durable workload, the preloaded journal directory.
type bench struct {
	sp      spec
	seed    int64
	dir     string  // per-process scratch directory under the work directory
	preload string  // journal directory written before any timed set-up
	base    []int64 // table state the preloaded journal must recover to
	runs    int
}

func newBench(sp spec, seed int64, workDir string) (*bench, error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workDir, "perfbench-")
	if err != nil {
		return nil, err
	}
	b := &bench{sp: sp, seed: seed, dir: dir, base: make([]int64, rows)}
	if sp.durable {
		b.preload = filepath.Join(dir, "preload")
		if err := b.writePreload(); err != nil {
			b.cleanup()
			return nil, fmt.Errorf("preload journal: %w", err)
		}
	}
	return b, nil
}

func (b *bench) cleanup() { os.RemoveAll(b.dir) }

// writePreload journals preloadTxns seeded transactions of two writes each,
// one in ten of them aborted, straight into a durable server and closes it
// without a checkpoint: set-up then recovers 3×preloadTxns records.
func (b *bench) writePreload() error {
	srv, err := storage.Open(storage.Config{Rows: rows, Durable: true, Dir: b.preload, SyncEvery: 1 << 30})
	if err != nil {
		return err
	}
	gen, err := workload.NewGenerator(workload.Config{Clients: 1, WritesPerTxn: 2, Objects: rows, Seed: b.seed*31 + 7})
	if err != nil {
		return err
	}
	for n := 1; n <= preloadTxns; n++ {
		tx := gen.NextTransaction()
		commit := n%10 != 0
		for _, r := range tx.Requests {
			if r.Op == request.Commit && !commit {
				r.Op = request.Abort
			}
			if _, err := srv.ExecScheduled(r); err != nil {
				return err
			}
			if r.Op == request.Write && commit {
				b.base[r.Object]++
			}
		}
	}
	if err := srv.EndBatch(); err != nil {
		return err
	}
	return srv.Close()
}

// stack is one running server: storage, the scheduler middleware, the
// netproto listener and the harness's mux connections.
type stack struct {
	dir    string
	srv    *storage.Server
	mw     *scheduler.Middleware
	ln     *netproto.Server
	conns  []*netproto.MuxClient
	openIn time.Duration // how long storage.Open took
}

func (b *bench) protocol() protocol.Protocol {
	if b.sp.sql {
		return protocol.SS2PLSQL()
	}
	return protocol.SS2PLDatalog()
}

// freshDir returns the storage directory for a new stack: a copy of the
// preloaded journal for the durable workload, "" otherwise.
func (b *bench) freshDir() (string, error) {
	if !b.sp.durable {
		return "", nil
	}
	b.runs++
	dir := filepath.Join(b.dir, fmt.Sprintf("run-%d", b.runs))
	return dir, copyDir(b.preload, dir)
}

// open builds and starts a stack, recording a span per step under parent.
func (b *bench) open(dir string, rec *recorder, parent int64) (*stack, error) {
	st := &stack{dir: dir}
	t := time.Now()
	srv, err := storage.Open(storage.Config{Rows: rows, Durable: b.sp.durable, Dir: dir, SyncEvery: 1})
	st.openIn = time.Since(t)
	rec.span("storage.Open", parent, 0, t, t.Add(st.openIn))
	if err != nil {
		return nil, err
	}
	st.srv = srv

	t = time.Now()
	cfg := scheduler.Config{
		Protocol:       b.protocol(),
		Server:         srv,
		MaxQueued:      maxQueued,
		ResubmitWindow: resubmitWindow,
	}
	trig := scheduler.HybridTrigger{Level: fillLevel, Every: fillEvery}
	if b.sp.partitions > 1 {
		pe, err := scheduler.NewPartitionedEngine(scheduler.PartitionedConfig{
			Base: cfg, Partitions: b.sp.partitions, Factory: b.protocol,
		})
		if err != nil {
			srv.Close()
			return nil, err
		}
		st.mw = scheduler.NewPartitionedMiddleware(pe, trig, metrics.NewCollector())
	} else {
		e, err := scheduler.NewEngine(cfg)
		if err != nil {
			srv.Close()
			return nil, err
		}
		st.mw = scheduler.NewMiddleware(e, trig, metrics.NewCollector())
	}
	st.mw.Start()
	rec.span("scheduler.Start", parent, 0, t, time.Now())

	t = time.Now()
	if st.ln, err = netproto.Listen("127.0.0.1:0", st.mw); err != nil {
		st.close()
		return nil, err
	}
	rec.span("netproto.Listen", parent, 0, t, time.Now())
	for i := 0; i < conns; i++ {
		t = time.Now()
		c, err := netproto.DialMux(st.ln.Addr(), netproto.MuxOptions{Timeout: requestTimeout, NoRetry: true})
		if err != nil {
			st.close()
			return nil, err
		}
		rec.span("netproto.DialMux", parent, 0, t, time.Now())
		st.conns = append(st.conns, c)
	}
	return st, nil
}

// stop shuts the front end and the scheduler down; the pipelined executors
// finish their batches before mw.Stop returns, so the table is quiescent
// afterwards.
func (st *stack) stop() {
	for _, c := range st.conns {
		c.Close()
	}
	st.conns = nil
	if st.ln != nil {
		st.ln.Close()
		st.ln = nil
	}
	if st.mw != nil {
		st.mw.Stop()
		st.mw = nil
	}
}

// close stops the stack and closes storage (the final journal fsync).
func (st *stack) close() error {
	st.stop()
	if st.srv == nil {
		return nil
	}
	err := st.srv.Close()
	st.srv = nil
	return err
}

// setup builds setupRuns fresh stacks, timing each from storage.Open to its
// first committed transaction, and returns the last one still running. The
// first transaction of the returned stack is recorded in led.
func (b *bench) setup(rec *recorder, led *ledger) (*stack, []time.Duration, []time.Duration, error) {
	gen, err := workload.NewGenerator(workload.Config{
		Clients: 1, ReadsPerTxn: b.sp.reads, WritesPerTxn: b.sp.writes, Objects: rows, Seed: b.seed*31 + 11,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	tx := renumber(gen.NextTransaction(), setupTA)
	var setups, opens []time.Duration
	var st *stack
	for i := 0; i < setupRuns; i++ {
		if st != nil {
			if err := st.close(); err != nil {
				return nil, nil, nil, err
			}
			if st.dir != "" {
				os.RemoveAll(st.dir)
			}
		}
		root := rec.newID()
		t0 := time.Now()
		dir, err := b.freshDir()
		if err != nil {
			return nil, nil, nil, err
		}
		rec.span("setup.copy", root, 0, t0, time.Now())
		start := time.Now()
		if st, err = b.open(dir, rec, root); err != nil {
			return nil, nil, nil, err
		}
		o := runTxn(st.conns[0], tx, start, rec, root)
		end := time.Now()
		rec.spanID(root, "setup", 0, 0, t0, end)
		if o.err != nil || o.aborted {
			st.close()
			return nil, nil, nil, fmt.Errorf("set-up transaction did not commit: aborted=%v err=%v", o.aborted, o.err)
		}
		setups = append(setups, end.Sub(start))
		opens = append(opens, st.openIn)
	}
	led.commit(tx)
	return st, setups, opens, nil
}

// renumber gives a transaction and its requests the number ta.
func renumber(tx request.Transaction, ta int64) request.Transaction {
	tx.TA = ta
	for i := range tx.Requests {
		tx.Requests[i].TA = ta
	}
	return tx
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			return errors.New("copyDir: unexpected non-regular file " + e.Name())
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
