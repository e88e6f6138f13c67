// Package scheduler implements the declarative middleware scheduler of the
// paper's Figure 1: clients connect to the scheduler instead of the server;
// requests are buffered in an incoming queue; a configurable trigger fires a
// scheduling round that moves the queue into the pending-request store, runs
// the declarative protocol query against pending and history, executes the
// qualified requests on the server as a batch, records them in the history
// database (with garbage collection) and returns results to the clients. A
// non-scheduling pass-through mode forwards requests unscheduled so that the
// real declarative-scheduling overhead can be measured (Section 3.3).
//
// A round is five explicit stages — admit, qualify, resolve, commit,
// execute — over the indexed stores of internal/store. Everything the next
// round's qualification depends on (pending membership, history membership,
// the change log the incremental protocols consume) is settled by the commit
// stage; the execute stage only performs server I/O. The synchronous Engine
// runs all five back to back; Pipeline overlaps round N's execute with round
// N+1's qualification (see pipeline.go).
package scheduler

import (
	"fmt"
	"time"

	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/relation"
	"repro/internal/request"
	"repro/internal/storage"
	"repro/internal/store"
)

// Mode selects scheduling or pass-through operation.
type Mode int

// Modes.
const (
	// Scheduling runs the declarative protocol each round and executes only
	// qualified requests, with the server's own scheduler disabled.
	Scheduling Mode = iota
	// PassThrough forwards requests to the server unscheduled; the server's
	// native lock-based scheduler does the work (the paper's comparison
	// mode).
	PassThrough
)

// Config parameterises an Engine.
type Config struct {
	Protocol protocol.Protocol
	Server   *storage.Server
	Mode     Mode
	// GCEvery runs history garbage collection every n rounds (0 or 1 =
	// every round; negative disables GC, for the ablation benchmark).
	GCEvery int
	// KeepLog retains the full execution log for offline serializability
	// checking.
	KeepLog bool
	// MaxBatch caps how many qualified requests execute per round (0 = no
	// cap). This is the external multiprogramming-level control of the
	// paper's related work (Schroeder et al.'s EQMS adjusts the MPL of the
	// underlying DBMS): the protocol decides *which* requests are safe, the
	// cap decides *how many* reach the server at once.
	MaxBatch int
	// StarveAfter is the waiting-age bound: a transaction whose pending
	// requests have gone this many rounds without any of them qualifying is
	// resolved — first by precise deadlock detection over the waits-for
	// graph, then, if no cycle explains the wait, by aborting the oldest
	// blocked transaction. This closes the starvation hole of the pure
	// nothing-qualified victim policy, under which a blocked transaction
	// could wait forever while other clients kept making progress. A
	// request deferred by the MaxBatch cap counts as progress — admission
	// control is operator policy, not protocol blocking. 0 selects
	// DefaultStarveAfter; negative disables the bound.
	StarveAfter int

	// The remaining fields bound the Middleware front-end (they are ignored
	// by a bare Engine, whose caller controls admission directly).

	// MaxQueued caps how many submissions may be admitted but not yet
	// answered. At the cap, new transactions are rejected with a BusyError
	// (carrying a retry-after hint) instead of growing the queue without
	// bound; requests of already-admitted transactions are always let in, so
	// an admitted transaction can always run to termination. 0 = unlimited.
	MaxQueued int
	// MaxInflightPerConn caps the unanswered requests of one network
	// connection on the multiplexed wire protocol (netproto reads it via
	// Middleware.Limits). 0 selects the netproto default.
	MaxInflightPerConn int
	// ShedLatencyBudget enables server-side load shedding: when the
	// qualify-latency EWMA exceeds the budget, new lowest-priority
	// transactions (Priority <= 0) are rejected with BusyError; beyond twice
	// the budget every new transaction is shed. Admitted work is never
	// dropped — shedding happens strictly before admission. 0 disables.
	ShedLatencyBudget time.Duration
	// ResubmitWindow enables the idempotent-resubmit cache: results of
	// executed requests are remembered until their transaction terminates,
	// and terminal outcomes of the last ResubmitWindow transactions are kept
	// so a client that reconnects and resubmits (its response was lost on
	// the wire) gets the recorded answer instead of executing twice.
	// 0 disables the cache (the default for embedded/benchmark use; the
	// network front end turns it on).
	ResubmitWindow int
}

// DefaultStarveAfter is the default waiting-age bound in rounds. Rounds are
// sub-millisecond to a few milliseconds, so the default tolerates long lock
// queues while bounding a wedged client's wait to well under a second.
const DefaultStarveAfter = 100

// Executed describes one executed request with its server result.
type Executed struct {
	Request request.Request
	Value   int64
	Err     error
}

// RoundResult reports what one scheduling round did.
type RoundResult struct {
	Executed []Executed
	// Victims lists transactions aborted to break deadlocks or starvation
	// this round.
	Victims []int64
	Stats   metrics.RoundStats
}

// Engine is the synchronous core of the scheduler: an incoming queue, the
// pending-request store, the history database and the protocol. It is not
// safe for concurrent use; Middleware adds the concurrent client front-end.
type Engine struct {
	cfg     Config
	hist    *store.History
	pending *store.Pending
	queue   []request.Request
	rounds  int
	nextID  int64

	starveAfter   int
	lastQualified []request.Request
	progressed    map[int64]bool // per-round scratch for the waiting-age clocks

	// replicas marks pending keys that are replica copies of cross-partition
	// terminations (partition.go): they qualify and enter history here so
	// this shard's locks release, but the home shard owns their execution.
	// nil on a standalone engine.
	replicas map[request.Key]bool
}

// NewEngine validates the config and creates an engine.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.Server == nil {
		return nil, fmt.Errorf("scheduler: config needs a server")
	}
	if cfg.Mode == Scheduling && cfg.Protocol == nil {
		return nil, fmt.Errorf("scheduler: scheduling mode needs a protocol")
	}
	starve := cfg.StarveAfter
	if starve == 0 {
		starve = DefaultStarveAfter
	}
	return &Engine{
		cfg:         cfg,
		hist:        store.NewHistory(cfg.KeepLog),
		pending:     store.NewPending(),
		nextID:      1,
		starveAfter: starve,
	}, nil
}

// History exposes the history store (experiments inspect it).
func (e *Engine) History() *store.History { return e.hist }

// PendingLen returns the pending-store size (requests admitted but not yet
// qualified).
func (e *Engine) PendingLen() int { return e.pending.Len() }

// QueueLen returns the incoming-queue size.
func (e *Engine) QueueLen() int { return len(e.queue) }

// Enqueue buffers requests in the incoming queue, assigning consecutive IDs
// (the paper's consecutive request number) and arrival stamps.
func (e *Engine) Enqueue(rs ...request.Request) {
	for _, r := range rs {
		r.ID = e.nextID
		e.nextID++
		r.Arrival = r.ID
		e.queue = append(e.queue, r)
	}
}

// execStep is one unit of deferred server work: optional write compensations
// (an aborting transaction's rollback) followed by one scheduled request.
// Victim abort records carry victim == true — no client is waiting on them.
type execStep struct {
	req    request.Request
	undo   []int64 // objects whose executed writes are compensated first
	victim bool
	// noServer skips the server call (but not the compensations): an abort
	// replicated to a non-home shard compensates that shard's executed
	// writes, while the home shard performs the abort itself.
	noServer bool
	// expectWrites arms the durable journal's commit gate for a commit
	// step: how many writes the transaction has in (global) history, i.e.
	// how many write records must be journaled before its commit record
	// may be. Zero when volatile, for non-commit steps, and for writeless
	// commits.
	expectWrites int
}

// execPlan is the server work of one round, in execution order. The plan is
// self-contained (it copies nothing from the stores), so the execute stage
// can run while later rounds mutate scheduler state.
type execPlan struct {
	round int
	steps []execStep
}

// Round runs one complete scheduling round synchronously: admit the queue
// into the pending store, qualify, resolve victims, commit the bookkeeping
// and execute the batch on the server.
func (e *Engine) Round() (RoundResult, error) {
	res, plan, err := e.schedule()
	if err != nil {
		return res, err
	}
	start := time.Now()
	executed, err := e.execute(plan)
	res.Executed = executed
	res.Stats.Exec = time.Since(start)
	res.Stats.Total += res.Stats.Exec
	return res, err
}

// schedule runs the synchronous stages of a round — admit, qualify, resolve,
// commit — and returns the round's execution plan. After schedule returns,
// the stores (and therefore the next round's qualification inputs) are fully
// updated; only server I/O remains.
func (e *Engine) schedule() (RoundResult, execPlan, error) {
	start := time.Now()
	e.rounds++

	// Stage 1 — admit: empty the incoming queue into the pending request
	// store "as a batch job".
	e.pending.Admit(e.queue...)
	e.queue = e.queue[:0]

	var res RoundResult
	res.Stats.Pending = e.pending.Len()

	// Stage 2 — qualify: evaluate the protocol over pending and history,
	// feeding incremental protocols the stores' accumulated change log.
	qualified, err := e.qualify(&res)
	if err != nil {
		return res, execPlan{}, err
	}
	// Waiting-age bookkeeping runs on the protocol's full qualified set,
	// before admission control: the bound covers protocol-blocked waits
	// ("rounds without any request qualifying", see Config.StarveAfter). A
	// request cut by the MaxBatch cap is schedulable — deferring it is the
	// operator's admission policy (under a priority order, deliberately so)
	// and must not get the transaction shot as a starvation victim.
	e.observeProgress(qualified)
	if e.cfg.MaxBatch > 0 && len(qualified) > e.cfg.MaxBatch {
		// Admission control: defer the tail (the protocol's order is a
		// priority order, so the cap keeps the most urgent requests).
		qualified = qualified[:e.cfg.MaxBatch]
	}

	// Stage 3 — resolve: decide which transactions abort this round.
	victims := e.resolve(qualified)
	if len(victims) > 0 && len(qualified) > 0 {
		// A victim aborts and rolls back this round: none of its requests
		// may reach the server, even ones that qualified (reachable since
		// the starvation bound can pick victims while the batch is moving).
		kept := qualified[:0]
		vs := make(map[int64]bool, len(victims))
		for _, ta := range victims {
			vs[ta] = true
		}
		for _, r := range qualified {
			if !vs[r.TA] {
				kept = append(kept, r)
			}
		}
		qualified = kept
	}

	// Stage 4 — commit: apply every bookkeeping consequence to the stores
	// and lay out the server work. History membership is settled here —
	// before any server call — which is what lets Pipeline qualify round
	// N+1 while round N is still executing.
	plan := e.commit(&res, qualified, victims)

	e.lastQualified = qualified
	res.Stats.Qualified = len(qualified)
	res.Stats.Victims = len(res.Victims)
	res.Stats.History = e.hist.Len()
	res.Stats.Total = time.Since(start)
	return res, plan, nil
}

// qualify evaluates the protocol (stage 2) and advances the waiting-age
// clocks of the pending store.
func (e *Engine) qualify(res *RoundResult) ([]request.Request, error) {
	var qualified []request.Request
	evalStart := time.Now()
	switch e.cfg.Mode {
	case PassThrough:
		qualified = append(qualified, e.pending.Live()...)
		protocol.ByID(qualified)
	default:
		var err error
		if ip, ok := e.cfg.Protocol.(protocol.IncrementalProtocol); ok {
			var d protocol.Deltas
			e.pending.Deltas(&d)
			e.hist.Deltas(&d)
			qualified, err = ip.QualifyIncremental(e.pending.Live(), e.hist.Live(), d)
		} else {
			qualified, err = e.cfg.Protocol.Qualify(e.pending.Live(), e.hist.Live())
		}
		if err != nil {
			return nil, fmt.Errorf("scheduler: round %d: %w", e.rounds, err)
		}
	}
	// The protocol consumed the accumulated change set; start the next one.
	e.pending.ResetDeltas()
	e.hist.ResetDeltas()
	res.Stats.Duration = time.Since(evalStart)
	if sr, ok := e.cfg.Protocol.(protocol.StrategyReporter); ok && e.cfg.Mode == Scheduling {
		res.Stats.Strategy = sr.LastStrategy()
	}
	return qualified, nil
}

// observeProgress advances the pending store's waiting-age clocks:
// transactions with a request in the protocol's qualified set made progress;
// the rest keep (or start) their blocked clock.
func (e *Engine) observeProgress(qualified []request.Request) {
	var progressed map[int64]bool
	if len(qualified) > 0 {
		if e.progressed == nil {
			e.progressed = make(map[int64]bool, len(qualified))
		} else {
			clear(e.progressed)
		}
		progressed = e.progressed
		for _, r := range qualified {
			progressed[r.TA] = true
		}
	}
	e.pending.ObserveRound(e.rounds, progressed)
}

// resolve (stage 3) returns the transactions to abort this round:
// protocol-declared wounds first, then reactive deadlock detection when the
// round is fully blocked, then the waiting-age starvation bound.
func (e *Engine) resolve(qualified []request.Request) []int64 {
	if e.cfg.Mode != Scheduling {
		return nil
	}
	// Protocol-declared aborts (wound-wait style prevention): the protocol's
	// own wound decision takes precedence over reactive deadlock detection.
	if w, ok := e.cfg.Protocol.(protocol.Wounder); ok {
		if victims := w.Wounded(); len(victims) > 0 {
			return victims
		}
	}
	// Deadlock resolution: a non-empty pending store with an empty qualified
	// set means the protocol is blocked; abort the youngest member of each
	// waits-for cycle, exactly like the native scheduler's victim policy.
	if len(qualified) == 0 && e.pending.Len() > 0 {
		if victims := protocol.DeadlockVictims(e.pending.Live(), e.hist.Live()); len(victims) > 0 {
			return victims
		}
	}
	// Starvation bound: when the oldest waiter has gone StarveAfter rounds
	// without progress while the batch kept moving, the nothing-qualified
	// policy above would never fire. Prefer precise cycle victims (an
	// undetected deadlock among a subset of the batch); abort the oldest
	// waiter itself only when no cycle explains the wait.
	if e.starveAfter > 0 {
		if ta, since, ok := e.pending.OldestBlocked(); ok && e.rounds-since >= e.starveAfter {
			if victims := protocol.DeadlockVictims(e.pending.Live(), e.hist.Live()); len(victims) > 0 {
				return victims
			}
			return []int64{ta}
		}
	}
	return nil
}

// abortOp is one victim abort as applied to one engine: the abort record to
// append (the single-loop engine assigns its ID; the partitioned sequencer
// preassigns it) and whether this engine performs the server-side abort call.
// The single loop always does; in a partitioned round only the victim's home
// shard calls the server while every other touched shard compensates the
// writes it executed locally.
type abortOp struct {
	rec        request.Request
	execServer bool
}

// commit (stage 4) applies the round's decisions to the stores — victim
// abort records and pending drops, qualified history membership and pending
// removal, garbage collection — and returns the execution plan.
func (e *Engine) commit(res *RoundResult, qualified []request.Request, victims []int64) execPlan {
	var aborts []abortOp
	if len(victims) > 0 {
		aborts = make([]abortOp, 0, len(victims))
	}
	for _, ta := range victims {
		ab := request.Request{
			ID: e.nextID, TA: ta, IntraTA: victimIntra, Op: request.Abort,
			Object: request.NoObject,
		}
		e.nextID++
		res.Victims = append(res.Victims, ta)
		aborts = append(aborts, abortOp{rec: ab, execServer: true})
	}
	return e.commitPlan(qualified, aborts, nil)
}

// commitPlan is the store side of commit, shared by the single loop and the
// partitioned shards: victim abort records and pending drops, qualified
// history membership and pending removal, garbage collection.
//
// commitWrites, set only by the partitioned sequencer on a durable server,
// maps a committing transaction to its global journaled-write expectation
// (writes summed across all shards' histories); nil means this engine's own
// history is the whole truth (the single loop), and the count is taken from
// it before the termination row lands.
func (e *Engine) commitPlan(qualified []request.Request, aborts []abortOp, commitWrites map[int64]int) execPlan {
	plan := execPlan{round: e.rounds}
	e.hist.SetRound(e.rounds)
	if len(aborts) > 0 || len(qualified) > 0 {
		plan.steps = make([]execStep, 0, len(aborts)+len(qualified))
	}
	durable := e.cfg.Server.Durable()
	for _, ab := range aborts {
		ta := ab.rec.TA
		// Roll the victim back: compensate every write it had executed. The
		// per-TA history index makes this O(|TA's writes|); the undo runs on
		// the server strictly after those writes (the plan preserves
		// execution order, and the executors are FIFO per engine).
		plan.steps = append(plan.steps, execStep{req: ab.rec, undo: e.undoList(ta), victim: true, noServer: !ab.execServer})
		if ab.execServer {
			e.hist.Append(ab.rec)
		} else {
			e.hist.AppendReplica(ab.rec)
		}
		// Drop the victim's pending requests; its client is notified via
		// the Victims list.
		e.pending.RemoveTA(ta)
		if e.replicas != nil {
			// A victim's pending cross-partition termination copies die with
			// its pending requests; drop their replica marks too.
			for k := range e.replicas {
				if k.TA == ta {
					delete(e.replicas, k)
				}
			}
		}
	}
	for _, r := range qualified {
		k := r.Key()
		if e.replicas != nil && e.replicas[k] {
			// Replica copy of a cross-partition termination: enter history
			// (releasing this shard's locks) without server work — the home
			// shard executes it and answers the client. An abort still
			// compensates the writes this shard executed.
			delete(e.replicas, k)
			if r.Op == request.Abort {
				plan.steps = append(plan.steps, execStep{req: r, undo: e.undoList(r.TA), noServer: true})
			}
			e.hist.AppendReplica(r)
			e.pending.Remove(k)
			continue
		}
		step := execStep{req: r}
		if r.Op == request.Abort {
			// A client abort rolls back the writes its transaction executed,
			// exactly as a victim's abort does.
			step.undo = e.undoList(r.TA)
		}
		if durable && r.Op == request.Commit {
			// Arm the commit gate before the termination row lands (and
			// before GC can collect the write rows the count is taken from).
			if commitWrites != nil {
				step.expectWrites = commitWrites[r.TA]
			} else {
				step.expectWrites = e.hist.WriteCountOf(r.TA)
			}
		}
		plan.steps = append(plan.steps, step)
		e.hist.Append(r)
		e.pending.Remove(k)
	}
	if e.cfg.GCEvery >= 0 && (e.cfg.GCEvery <= 1 || e.rounds%e.cfg.GCEvery == 0) {
		e.hist.GC()
		// History GC is the checkpoint trigger of the durable mode: the
		// stores just shed finished transactions, so fold the journal into
		// the page file too (rate-limited by journal growth inside).
		e.cfg.Server.MaybeCheckpoint()
	}
	return plan
}

// undoList returns the objects of ta's executed writes, the compensations of
// its abort. A write to an object outside the table failed at the server
// and changed nothing, so it is left out.
func (e *Engine) undoList(ta int64) []int64 {
	writes := e.hist.WritesOf(ta)
	rows := int64(e.cfg.Server.Rows())
	kept := writes[:0]
	for _, obj := range writes {
		if obj >= 0 && obj < rows {
			kept = append(kept, obj)
		}
	}
	return kept
}

// execute (stage 5) performs the plan's server work in order. Per-request
// server errors are reported in the Executed entries; a failing write
// compensation is fatal (the stores and the server have diverged).
func (e *Engine) execute(plan execPlan) ([]Executed, error) {
	var out []Executed
	if n := len(plan.steps); n > 0 {
		out = make([]Executed, 0, n)
	}
	for _, step := range plan.steps {
		for _, obj := range step.undo {
			if err := e.cfg.Server.UndoWriteFor(step.req.TA, obj); err != nil {
				return out, err
			}
		}
		if step.noServer {
			continue
		}
		if step.expectWrites > 0 {
			e.cfg.Server.ExpectWrites(step.req.TA, step.expectWrites)
		}
		v, err := e.cfg.Server.ExecScheduled(step.req)
		if step.victim {
			if err != nil {
				return out, err
			}
			continue
		}
		out = append(out, Executed{Request: step.req, Value: v, Err: err})
	}
	// Commit-batch boundary: the durable journal flushes (and, per the
	// group-commit policy, fsyncs) before the batch's results can reach any
	// client. No-op on a volatile server.
	if err := e.cfg.Server.EndBatch(); err != nil {
		return out, err
	}
	return out, nil
}

// victimIntra marks scheduler-injected abort requests; it is far above any
// real intra-transaction number.
const victimIntra = 1 << 30

// Rounds returns how many rounds have run.
func (e *Engine) Rounds() int { return e.rounds }

// RTE returns the paper's ready-to-execute table for the last round: the
// qualified requests as a relation over the Table 2 schema (empty before the
// first round).
func (e *Engine) RTE() *relation.Relation { return request.ToRelation(e.lastQualified) }
