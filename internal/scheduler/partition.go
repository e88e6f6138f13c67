// Partitioned round loops: N engines, each owning its own protocol instance,
// warm incremental state, pending/history stores and executor, run in
// lockstep super-rounds. A slot directory (store.Directory) routes every data
// request to the shard owning its object — objects hash into a fixed number
// of slots and a versioned slot→shard table owns placement — so all lock
// state for an object lives in exactly one partition and per-shard
// qualification needs no cross-shard data. The protocols this supports
// declare it via protocol.ObjectDecomposable (their lock and block rules join
// requests and history on the same object only).
//
// Because placement is table data rather than a fixed hash, a rebalancer
// (rebalance.go) can move hot slots between shards — or split one across a
// shard set — between super-rounds: the slot's pending and history rows
// migrate store to store, emitting exact remove/add deltas on both sides so
// the warm incremental protocols patch instead of rebuilding, and the drained
// admission queues are re-routed against the new table before the round
// admits them.
//
// Single-partition transactions — the steady-state case — touch one shard's
// queue, stores and executor and never synchronize with other shards' data:
// the only cross-shard coordination is the super-round barrier and the
// sequencer's victim arithmetic, both lock-free over the shard stores.
//
// Cross-partition transactions exist only at termination (a commit or abort
// must release the transaction's locks in every shard it touched; data
// requests are single-shard by construction). The sequencer orders them
// deterministically — the globally assigned request ID is the sequence
// number — and admits a copy to every touched shard: each shard qualifies
// its copy locally, and the termination commits only when all touched shards
// agree (all copies qualified). The home shard (lowest touched index)
// executes it on the server and answers the client; the other shards append
// replica history rows that release their locks without server work.
//
// Victim resolution is global, which is what makes the partitioned scheduler
// equivalent to the single loop (see partition_test.go): protocol wounds are
// the union of the shards' wounds, deadlock detection runs over the
// concatenated pending and history relations (the waits-for graph's edges
// are same-object and therefore intra-shard, but cycles span shards), and
// the starvation bound compares the oldest blocked transaction across all
// shards. A victim's abort is fanned out like a termination: every touched
// shard compensates the writes it executed locally; the home shard performs
// the server-side abort.
package scheduler

import (
	"fmt"
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/request"
	"repro/internal/store"
)

// MaxPartitions bounds the partition count: shard sets are one bitmask word.
const MaxPartitions = 64

// shardOp is one admission-queue entry: a request to admit, a revocation of
// a stale duplicate copy, or a replica copy of a cross-partition
// termination.
type shardOp struct {
	req request.Request
	// revoke removes req's key from the shard's pending store instead of
	// admitting: a duplicate (TA, IntraTA) submission moved the key to
	// another partition and this shard holds the superseded copy.
	revoke bool
	// replica marks a cross-partition termination copy whose home is another
	// shard: it qualifies and enters history here (releasing this shard's
	// locks) but does not execute on the server.
	replica bool
}

// shardQueue is one shard's concurrent admission queue. Submissions push
// under the shard mutex; the round loop drains by buffer swap, so a burst
// costs one lock acquisition per side.
type shardQueue struct {
	mu    sync.Mutex
	ops   []shardOp
	spare []shardOp
}

// admitOps applies one shard's drained admission batch to its pending store
// (stage 1 of the shard's super-round share).
func (e *Engine) admitOps(ops []shardOp) {
	for _, op := range ops {
		k := op.req.Key()
		if op.revoke {
			e.pending.Remove(k)
			if e.replicas != nil {
				delete(e.replicas, k)
			}
			continue
		}
		if op.replica {
			if e.replicas == nil {
				e.replicas = make(map[request.Key]bool)
			}
			e.replicas[k] = true
		} else if e.replicas != nil {
			delete(e.replicas, k)
		}
		e.pending.Admit(op.req)
	}
}

// crossTxn tracks one in-flight cross-partition termination: how many shard
// copies were admitted. It commits only when that many copies qualify in the
// same super-round.
type crossTxn struct {
	copies int
}

// PartitionedConfig parameterises a PartitionedEngine.
type PartitionedConfig struct {
	// Base carries the shared engine settings (server, mode, GC, log,
	// MaxBatch, starvation bound). Base.Protocol is ignored —
	// each shard owns the instance Factory builds for it.
	Base Config
	// Partitions is the round-loop count (1..MaxPartitions).
	Partitions int
	// Factory builds one protocol instance per shard. Required in
	// Scheduling mode; the protocol must claim per-object decomposability
	// (protocol.ObjectDecomposable) when Partitions > 1 — cross-object
	// protocols (SLA priority, wound-wait) cannot shard by object.
	Factory func() protocol.Protocol
	// Rebalance configures the slot directory and the online rebalancer
	// (rebalance.go). The zero value routes by a static slot table
	// (DefaultSlots slots, no automatic moves) — forced moves via
	// ForceRebalance still apply.
	Rebalance RebalanceConfig
}

// PartitionedEngine runs N partitioned round loops in lockstep super-rounds.
// Enqueue is safe for concurrent use (per-shard admission); Round,
// RoundDeferred and the inspection methods must stay on one goroutine, like
// Engine's.
type PartitionedEngine struct {
	cfg      Config
	part     *store.Directory
	parts    int
	shards   []*Engine
	affinity *store.Affinity

	// reb holds the rebalancer's load accounting and policy (nil when the
	// automatic rebalancer is disabled); forced carries externally queued
	// slot moves, applied at the start of the next super-round.
	reb      *rebalancer
	forcedMu sync.Mutex
	forced   []store.SlotMove
	// inflight counts executor plans submitted but not yet executed; slot
	// migration quiesces on it before moving history rows between shards.
	inflight atomic.Int64

	nextID atomic.Int64
	queues []shardQueue
	queued atomic.Int64

	// cross tracks in-flight cross-partition terminations; Enqueue adds
	// under crossMu, the sequencer settles and deletes.
	crossMu sync.Mutex
	cross   map[request.Key]*crossTxn

	rounds      int
	starveAfter int

	// Per-round scratch, reused across super-rounds.
	ops        [][]shardOp
	active     []int
	qual       [][]request.Request
	plans      []execPlan
	shardErrs  []error
	shardStats []metrics.RoundStats
	progressed map[int64]bool

	// Deferred execution (per-shard executors), started on demand.
	execOnce sync.Once
	jobs     []chan execPlan
	done     chan Completion
	stopOnce sync.Once

	fatalMu sync.Mutex
	fatal   error
}

// NewPartitionedEngine validates the config and builds the shard engines.
func NewPartitionedEngine(cfg PartitionedConfig) (*PartitionedEngine, error) {
	if cfg.Partitions < 1 || cfg.Partitions > MaxPartitions {
		return nil, fmt.Errorf("scheduler: partitions must be in [1,%d], got %d", MaxPartitions, cfg.Partitions)
	}
	if cfg.Base.Mode == Scheduling && cfg.Factory == nil {
		return nil, fmt.Errorf("scheduler: partitioned scheduling mode needs a protocol factory")
	}
	starve := cfg.Base.StarveAfter
	if starve == 0 {
		starve = DefaultStarveAfter
	}
	pe := &PartitionedEngine{
		cfg:         cfg.Base,
		part:        store.NewDirectory(cfg.Rebalance.Slots, cfg.Partitions),
		parts:       cfg.Partitions,
		affinity:    store.NewAffinity(),
		cross:       make(map[request.Key]*crossTxn),
		starveAfter: starve,
		queues:      make([]shardQueue, cfg.Partitions),
		ops:         make([][]shardOp, cfg.Partitions),
		qual:        make([][]request.Request, cfg.Partitions),
		plans:       make([]execPlan, cfg.Partitions),
		shardErrs:   make([]error, cfg.Partitions),
	}
	for i := 0; i < cfg.Partitions; i++ {
		shardCfg := cfg.Base
		if cfg.Factory != nil {
			shardCfg.Protocol = cfg.Factory()
			if cfg.Partitions > 1 && !protocol.IsObjectDecomposable(shardCfg.Protocol) {
				return nil, fmt.Errorf("scheduler: protocol %s does not factor by object and cannot run partitioned (partitions=%d)",
					shardCfg.Protocol.Name(), cfg.Partitions)
			}
		}
		e, err := NewEngine(shardCfg)
		if err != nil {
			return nil, err
		}
		pe.shards = append(pe.shards, e)
	}
	if cfg.Rebalance.Trigger > 0 && cfg.Partitions > 1 {
		pe.reb = newRebalancer(cfg.Rebalance, pe.part.Slots(), cfg.Partitions)
	}
	return pe, nil
}

// Partitions returns the shard count.
func (pe *PartitionedEngine) Partitions() int { return pe.parts }

// Directory exposes the slot directory (tests, experiments, metrics).
// Routing reads are safe for concurrent use; Apply is the round loop's.
func (pe *PartitionedEngine) Directory() *store.Directory { return pe.part }

// Shard exposes one shard engine for inspection (tests, experiments).
// Callers must not run rounds on it.
func (pe *PartitionedEngine) Shard(i int) *Engine { return pe.shards[i] }

// Rounds returns how many super-rounds have run.
func (pe *PartitionedEngine) Rounds() int { return pe.rounds }

// QueueLen returns the total queued admission operations across shards
// (the trigger's fill-level input). Safe for concurrent use.
func (pe *PartitionedEngine) QueueLen() int { return int(pe.queued.Load()) }

// PendingLen sums the shard pending stores. Round-loop goroutine only.
func (pe *PartitionedEngine) PendingLen() int {
	n := 0
	for _, e := range pe.shards {
		n += e.pending.Len()
	}
	return n
}

// MergedLog merges the shard execution logs into one conflict-preserving
// order: entries sort by the super-round they committed in (stable, so
// within a round each shard's own order survives). Within one round all of
// an object's requests execute on a single shard — in that shard's log
// order — and across rounds the round stamp orders them, even when a slot
// migration moved the object between shards mid-run. Replica copies of
// cross-partition terminations and migrated rows are excluded by the shards
// (store.History.AppendReplica/AppendMigrated), so each request appears
// exactly once.
func (pe *PartitionedEngine) MergedLog() []request.Request {
	var out []request.Request
	var rounds []int
	for _, e := range pe.shards {
		out = append(out, e.hist.Log()...)
		rounds = append(rounds, e.hist.LogRounds()...)
	}
	idx := make([]int, len(out))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return rounds[idx[a]] < rounds[idx[b]] })
	merged := make([]request.Request, len(out))
	for i, j := range idx {
		merged[i] = out[j]
	}
	return merged
}

// ShardStats returns the per-shard round records of the last super-round
// (shards that were idle have no record). The slice is reused next round.
func (pe *PartitionedEngine) ShardStats() []metrics.RoundStats { return pe.shardStats }

// Err returns the sticky fatal executor error, if any.
func (pe *PartitionedEngine) Err() error {
	pe.fatalMu.Lock()
	defer pe.fatalMu.Unlock()
	return pe.fatal
}

func (pe *PartitionedEngine) setFatal(err error) {
	pe.fatalMu.Lock()
	if pe.fatal == nil {
		pe.fatal = err
	}
	pe.fatalMu.Unlock()
}

// push appends one op to a shard queue.
func (pe *PartitionedEngine) push(s int, op shardOp) {
	q := &pe.queues[s]
	q.mu.Lock()
	q.ops = append(q.ops, op)
	q.mu.Unlock()
	pe.queued.Add(1)
}

// Enqueue routes requests to their shards, assigning globally consecutive
// IDs (the paper's request numbers double as the deterministic cross-
// partition sequence). Safe for concurrent use by many client workers.
//
// Duplicate (TA, IntraTA) submissions keep the newest-wins contract within a
// shard exactly (store.Pending.Admit); when the duplicate's object moved it
// to a different shard, the stale copy is revoked from the old shard. Two
// concurrent resubmissions of the same key racing each other may transiently
// leave a copy in each shard — the same logical request executing twice,
// which resubmission already risks on the single loop (a copy can execute
// before its replacement arrives).
func (pe *PartitionedEngine) Enqueue(rs ...request.Request) {
	for _, r := range rs {
		r.ID = pe.nextID.Add(1)
		r.Arrival = r.ID
		if r.Op.IsTermination() {
			pe.enqueueTermination(r)
			continue
		}
		s := pe.part.ForObject(r.Object)
		if prev, moved := pe.affinity.Route(r.Key(), s); moved {
			pe.push(prev, shardOp{req: r, revoke: true})
		}
		pe.push(s, shardOp{req: r})
	}
}

// enqueueTermination sequences a commit/abort request: one copy per touched
// shard, the lowest touched shard as home. The request ID assigned by
// Enqueue is the global sequence number — every shard admits and orders the
// copies identically.
func (pe *PartitionedEngine) enqueueTermination(r request.Request) {
	mask := pe.affinity.ShardsOf(r.TA)
	if mask == 0 {
		// The transaction never touched an object here (empty transaction,
		// or a termination retry after its state was dropped): single-shard
		// by definition.
		pe.push(pe.part.ForTA(r.TA), shardOp{req: r})
		return
	}
	home := bits.TrailingZeros64(mask)
	if mask&(mask-1) == 0 {
		pe.push(home, shardOp{req: r})
		return
	}
	copies := bits.OnesCount64(mask)
	pe.crossMu.Lock()
	pe.cross[r.Key()] = &crossTxn{copies: copies}
	pe.crossMu.Unlock()
	for m := mask; m != 0; m &= m - 1 {
		s := bits.TrailingZeros64(m)
		pe.push(s, shardOp{req: r, replica: s != home})
	}
}

// forShards runs f over the listed shards, in parallel when more than one
// core and shard are available. Errors land in pe.shardErrs.
func (pe *PartitionedEngine) forShards(shards []int, f func(s int) error) {
	if len(shards) <= 1 || runtime.GOMAXPROCS(0) == 1 {
		for _, s := range shards {
			pe.shardErrs[s] = f(s)
		}
		return
	}
	var wg sync.WaitGroup
	for _, s := range shards {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			pe.shardErrs[s] = f(s)
		}(s)
	}
	wg.Wait()
}

// Round runs one complete super-round synchronously: schedule (admit,
// qualify, sequence, resolve, commit) and execute each shard's plan. Shard
// plans execute sequentially in shard order — the deterministic oracle-
// comparable mode; RoundDeferred runs them on parallel per-shard executors.
func (pe *PartitionedEngine) Round() (RoundResult, error) {
	res, err := pe.schedule(nil)
	if err != nil {
		return res, err
	}
	start := time.Now()
	for s := range pe.plans {
		if len(pe.plans[s].steps) == 0 {
			continue
		}
		out, err := pe.shards[s].execute(pe.plans[s])
		res.Executed = append(res.Executed, out...)
		if err != nil {
			return res, err
		}
	}
	res.Stats.Exec = time.Since(start)
	res.Stats.Total += res.Stats.Exec
	return res, nil
}

// schedule runs the scheduling stages of one super-round, leaving each
// shard's execution plan in pe.plans. Stages: drain and admit per shard,
// slot rebalancing (forced or load-triggered; usually a no-op), qualify per
// shard (parallel), then the single-threaded sequencer — waiting-age
// bookkeeping, admission cap, cross-partition agreement, global victim
// resolution — then commit per shard (parallel). deliver drains executor
// completions while a migration quiesces in-flight plans; nil in sync mode.
func (pe *PartitionedEngine) schedule(deliver func(Completion)) (RoundResult, error) {
	start := time.Now()
	pe.rounds++
	round := pe.rounds

	// Drain the shard queues (one buffer swap per shard).
	drained := int64(0)
	for s := range pe.queues {
		q := &pe.queues[s]
		q.mu.Lock()
		ops := q.ops
		q.ops = q.spare[:0]
		q.spare = ops
		q.mu.Unlock()
		pe.ops[s] = ops
		drained += int64(len(ops))
	}
	pe.queued.Add(-drained)

	// Rebalance between super-rounds: apply forced or load-planned slot
	// moves and migrate the moved slots' rows between shard stores. Once
	// the table has ever moved, re-route the drained admissions against the
	// current table — an op pushed while a swap raced its Enqueue routing
	// lands here un-admitted, so a stale route never becomes store state.
	if moves := pe.pendingMoves(); len(moves) > 0 {
		if err := pe.applyMoves(moves, deliver); err != nil {
			return RoundResult{}, err
		}
	}
	if pe.part.Version() > 0 {
		pe.rerouteDrained()
	}

	// A shard participates when it has admissions or pending work.
	pe.active = pe.active[:0]
	for s, e := range pe.shards {
		if len(pe.ops[s]) > 0 || e.pending.Len() > 0 {
			pe.active = append(pe.active, s)
		}
		pe.plans[s] = execPlan{}
		pe.qual[s] = nil
	}

	var res RoundResult
	res.Stats.Partition = metrics.MergedPartition
	pe.shardStats = pe.shardStats[:0]
	if len(pe.active) == 0 {
		res.Stats.Total = time.Since(start)
		return res, nil
	}

	// Stages 1+2 per shard — admit, qualify. Each shard's round counter is
	// pinned to the super-round number so waiting-age clocks and GC cadence
	// match the single loop's.
	type shardRound struct {
		stats    metrics.RoundStats
		replicas int
	}
	shardRes := make([]shardRound, pe.parts)
	qualStart := time.Now()
	pe.forShards(pe.active, func(s int) error {
		e := pe.shards[s]
		e.rounds = round
		e.admitOps(pe.ops[s])
		sr := &shardRes[s]
		sr.stats.Partition = s
		sr.stats.Pending = e.pending.Len()
		sr.replicas = len(e.replicas)
		var r RoundResult
		q, err := e.qualify(&r)
		if err != nil {
			return err
		}
		pe.qual[s] = q
		sr.stats.Duration = r.Stats.Duration
		sr.stats.Strategy = r.Stats.Strategy
		return nil
	})
	for _, s := range pe.active {
		if err := pe.shardErrs[s]; err != nil {
			return res, err
		}
	}
	qualDur := time.Since(qualStart)

	// Sequencer: everything between qualification and commit is global and
	// single-threaded, mirroring the single loop's decision order exactly.

	// Waiting-age bookkeeping over the union of the shards' pre-cap
	// qualified sets (a transaction progressed if any of its requests
	// qualified in any shard).
	if pe.progressed == nil {
		pe.progressed = make(map[int64]bool)
	} else {
		clear(pe.progressed)
	}
	for _, s := range pe.active {
		for _, r := range pe.qual[s] {
			pe.progressed[r.TA] = true
		}
	}
	for _, s := range pe.active {
		pe.shards[s].pending.ObserveRound(round, pe.progressed)
	}

	// Admission control: cap the merged batch by global ID order (each
	// shard's qualified list is already in its protocol's order). A
	// cross-partition termination's copies share an ID and each occupies a
	// slot; a partially capped one is stripped by the agreement check below
	// and retries next round.
	pe.capQualified()

	// Cross-partition agreement: a termination sequenced to k shards commits
	// only when all k copies qualified this round; otherwise every copy
	// stays pending and retries.
	pe.crossMu.Lock()
	pe.stripUnagreed()

	// Global victim resolution over the shard union.
	victims := pe.resolve()
	totalQualified := 0
	for _, s := range pe.active {
		totalQualified += len(pe.qual[s])
	}
	aborts := make([][]abortOp, pe.parts)
	commitShards := append([]int(nil), pe.active...)
	if len(victims) > 0 {
		if totalQualified > 0 {
			vs := make(map[int64]bool, len(victims))
			for _, ta := range victims {
				vs[ta] = true
			}
			for _, s := range pe.active {
				kept := pe.qual[s][:0]
				for _, r := range pe.qual[s] {
					if !vs[r.TA] {
						kept = append(kept, r)
					}
				}
				pe.qual[s] = kept
			}
		}
		inCommit := make(map[int]bool, len(commitShards))
		for _, s := range commitShards {
			inCommit[s] = true
		}
		for _, ta := range victims {
			mask := pe.affinity.ShardsOf(ta)
			if mask == 0 {
				mask = 1 << uint(pe.part.ForTA(ta))
			}
			rec := request.Request{
				ID: pe.nextID.Add(1), TA: ta, IntraTA: victimIntra,
				Op: request.Abort, Object: request.NoObject,
			}
			home := bits.TrailingZeros64(mask)
			for m := mask; m != 0; m &= m - 1 {
				s := bits.TrailingZeros64(m)
				aborts[s] = append(aborts[s], abortOp{rec: rec, execServer: s == home})
				if !inCommit[s] {
					// The victim executed writes in a shard with no pending
					// work this round: that shard still commits its abort
					// record and compensations.
					inCommit[s] = true
					pe.shards[s].rounds = round
					commitShards = append(commitShards, s)
				}
			}
			pe.affinity.Drop(ta)
			for k := range pe.cross {
				if k.TA == ta {
					delete(pe.cross, k)
				}
			}
			res.Victims = append(res.Victims, ta)
		}
		sort.Ints(commitShards)
	}

	// Settle committed terminations: count cross-partition commits, release
	// routing state, and dedupe replica copies out of the merged Qualified
	// count (each committed request counts once, as on the single loop).
	// On a durable server this is also where each committing transaction's
	// global journaled-write expectation is fixed — summed across every
	// shard's history while the sequencer is still single-threaded, before
	// any shard appends the termination row or garbage-collects. The
	// shards' executors run concurrently, so without this gate count a home
	// shard could journal a commit before another shard journals one of the
	// transaction's earlier writes, and a crash between the two would lose
	// an acked commit's write.
	seenKey := make(map[request.Key]bool)
	dupCopies := 0
	var commitWrites map[int64]int
	// Committing terminations whose affinity mask names shards that hold no
	// qualified copy: the copies were routed before a slot migration moved
	// the transaction's rows onto a new shard, so without a late copy that
	// shard would never release the migrated locks. The sequencer injects
	// the missing replica copies here, after agreement — they are
	// bookkeeping rows, not admissions, so they bypass the cap.
	type termCommit struct {
		r    request.Request
		mask uint64
	}
	var lateCommits []termCommit
	var present map[request.Key]uint64
	durable := pe.cfg.Server.Durable()
	for _, s := range pe.active {
		for _, r := range pe.qual[s] {
			if !r.Op.IsTermination() {
				continue
			}
			k := r.Key()
			if present == nil {
				present = make(map[request.Key]uint64)
			}
			present[k] |= 1 << uint(s)
			if seenKey[k] {
				dupCopies++
				continue
			}
			seenKey[k] = true
			if durable && r.Op == request.Commit {
				n := 0
				for _, sh := range pe.shards {
					n += sh.hist.WriteCountOf(r.TA)
				}
				if n > 0 {
					if commitWrites == nil {
						commitWrites = make(map[int64]int)
					}
					commitWrites[r.TA] = n
				}
			}
			if _, ok := pe.cross[k]; ok {
				res.Stats.Cross++
				delete(pe.cross, k)
			}
			if r.IntraTA != victimIntra {
				if mask := pe.affinity.ShardsOf(r.TA); mask != 0 {
					lateCommits = append(lateCommits, termCommit{r: r, mask: mask})
				}
			}
			pe.affinity.Drop(r.TA)
		}
	}
	pe.crossMu.Unlock()
	for _, c := range lateCommits {
		k := c.r.Key()
		for m := c.mask &^ present[k]; m != 0; m &= m - 1 {
			s := bits.TrailingZeros64(m)
			e := pe.shards[s]
			if e.replicas == nil {
				e.replicas = make(map[request.Key]bool)
			}
			e.replicas[k] = true
			pe.qual[s] = append(pe.qual[s], c.r)
			dupCopies++
			inCommit := false
			for _, cs := range commitShards {
				if cs == s {
					inCommit = true
					break
				}
			}
			if !inCommit {
				e.rounds = round
				commitShards = append(commitShards, s)
			}
		}
	}
	if len(lateCommits) > 0 {
		sort.Ints(commitShards)
	}

	// Stage 4 per shard — commit: replica copies enter history without
	// server work; victim aborts compensate shard-local writes. The
	// commitWrites map is read-only from here on, so the parallel shards
	// share it safely.
	pe.forShards(commitShards, func(s int) error {
		e := pe.shards[s]
		pe.plans[s] = e.commitPlan(pe.qual[s], aborts[s], commitWrites)
		e.lastQualified = pe.qual[s]
		sr := &shardRes[s]
		sr.stats.Partition = s
		sr.stats.Qualified = len(pe.qual[s])
		sr.stats.Victims = len(aborts[s])
		sr.stats.History = e.hist.Len()
		return nil
	})

	// Fold this round's qualified work and leftover pending occupancy into
	// the rebalancer's per-slot and per-shard load accounts.
	pe.foldLoads()

	// Merged per-round record: counts match the single loop's (replica
	// copies deduped from Qualified, subtracted from Pending).
	for _, s := range commitShards {
		sr := shardRes[s]
		res.Stats.Pending += sr.stats.Pending - sr.replicas
		res.Stats.Qualified += sr.stats.Qualified
		res.Stats.History += sr.stats.History
		pe.shardStats = append(pe.shardStats, sr.stats)
	}
	res.Stats.Qualified -= dupCopies
	res.Stats.Victims = len(res.Victims)
	res.Stats.Duration = qualDur
	res.Stats.Total = time.Since(start)
	return res, nil
}

// capQualified applies the MaxBatch admission cap to the merged batch by
// global ID order, truncating each shard's list in place.
func (pe *PartitionedEngine) capQualified() {
	max := pe.cfg.MaxBatch
	if max <= 0 {
		return
	}
	total := 0
	for _, s := range pe.active {
		total += len(pe.qual[s])
	}
	if total <= max {
		return
	}
	// K-way merge by ID over the shard lists' heads, keeping the max
	// globally smallest.
	idx := make([]int, pe.parts)
	keep := make([]int, pe.parts)
	for n := 0; n < max; n++ {
		best := -1
		for _, s := range pe.active {
			if idx[s] >= len(pe.qual[s]) {
				continue
			}
			if best < 0 || pe.qual[s][idx[s]].ID < pe.qual[best][idx[best]].ID {
				best = s
			}
		}
		if best < 0 {
			break
		}
		idx[best]++
		keep[best]++
	}
	for _, s := range pe.active {
		pe.qual[s] = pe.qual[s][:keep[s]]
	}
}

// stripUnagreed removes cross-partition terminations that did not qualify in
// every touched shard this round (pe.crossMu held). Under SS2PL terminations
// always qualify, so this fires only under the MaxBatch cap or protocols
// that can block terminations.
func (pe *PartitionedEngine) stripUnagreed() {
	if len(pe.cross) == 0 {
		return
	}
	var counts map[request.Key]int
	for _, s := range pe.active {
		for _, r := range pe.qual[s] {
			if !r.Op.IsTermination() {
				continue
			}
			if _, ok := pe.cross[r.Key()]; ok {
				if counts == nil {
					counts = make(map[request.Key]int)
				}
				counts[r.Key()]++
			}
		}
	}
	if counts == nil {
		return
	}
	var stripped map[request.Key]bool
	for k, n := range counts {
		if n < pe.cross[k].copies {
			if stripped == nil {
				stripped = make(map[request.Key]bool)
			}
			stripped[k] = true
		}
	}
	if stripped == nil {
		return
	}
	for _, s := range pe.active {
		kept := pe.qual[s][:0]
		for _, r := range pe.qual[s] {
			if !stripped[r.Key()] {
				kept = append(kept, r)
			}
		}
		pe.qual[s] = kept
	}
}

// resolve is the global stage 3: protocol wounds unioned across shards, then
// deadlock detection over the concatenated relations when nothing qualified,
// then the waiting-age starvation bound over the global oldest waiter —
// exactly the single loop's decision order.
func (pe *PartitionedEngine) resolve() []int64 {
	if pe.cfg.Mode != Scheduling {
		return nil
	}
	var wounds []int64
	seen := map[int64]bool{}
	for _, s := range pe.active {
		if w, ok := pe.shards[s].cfg.Protocol.(protocol.Wounder); ok {
			for _, ta := range w.Wounded() {
				if !seen[ta] {
					seen[ta] = true
					wounds = append(wounds, ta)
				}
			}
		}
	}
	if len(wounds) > 0 {
		sort.Slice(wounds, func(i, j int) bool { return wounds[i] < wounds[j] })
		return wounds
	}
	totalQualified, totalPending := 0, 0
	for _, s := range pe.active {
		totalQualified += len(pe.qual[s])
		totalPending += pe.shards[s].pending.Len()
	}
	if totalQualified == 0 && totalPending > 0 {
		if victims := protocol.DeadlockVictims(pe.concatPending(), pe.concatHistory()); len(victims) > 0 {
			return victims
		}
	}
	if pe.starveAfter > 0 {
		ta, since, ok := pe.oldestBlocked()
		if ok && pe.rounds-since >= pe.starveAfter {
			if victims := protocol.DeadlockVictims(pe.concatPending(), pe.concatHistory()); len(victims) > 0 {
				return victims
			}
			return []int64{ta}
		}
	}
	return nil
}

// oldestBlocked is the global waiting-age minimum: the single loop's
// store.Pending.OldestBlocked over the shard union (smallest last-progress
// round, ties to the smallest TA). Shard clocks run on super-round numbers,
// so they are comparable across shards; a transaction pending in several
// shards has the same clock everywhere (progress observation is global).
func (pe *PartitionedEngine) oldestBlocked() (ta int64, since int, ok bool) {
	for _, s := range pe.active {
		t, sc, o := pe.shards[s].pending.OldestBlocked()
		if !o {
			continue
		}
		if !ok || sc < since || (sc == since && t < ta) {
			ta, since, ok = t, sc, true
		}
	}
	return ta, since, ok
}

// concatPending and concatHistory materialise the global relations for
// deadlock detection — allocated only on blocked or starving rounds.
func (pe *PartitionedEngine) concatPending() []request.Request {
	var out []request.Request
	for _, e := range pe.shards {
		out = append(out, e.pending.Live()...)
	}
	return out
}

func (pe *PartitionedEngine) concatHistory() []request.Request {
	var out []request.Request
	for _, e := range pe.shards {
		out = append(out, e.hist.Live()...)
	}
	return out
}

// StartExecutors launches one executor goroutine per shard for deferred
// (pipelined) execution. Completions from all shards merge onto one channel,
// each stamped with its partition. Idempotent.
func (pe *PartitionedEngine) StartExecutors() {
	pe.execOnce.Do(func() {
		pe.done = make(chan Completion, pe.parts*pipelineDepth)
		pe.jobs = make([]chan execPlan, pe.parts)
		var wg sync.WaitGroup
		for s := 0; s < pe.parts; s++ {
			pe.jobs[s] = make(chan execPlan, pipelineDepth)
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				pe.runExecutor(s)
			}(s)
		}
		go func() {
			wg.Wait()
			close(pe.done)
		}()
	})
}

// Completions delivers each shard plan's executed batch. Per shard the order
// is FIFO round order; across shards the interleaving is unspecified (as is
// the server-visible cross-shard order — same-object requests never split
// across shards). The channel closes after StopExecutors once all in-flight
// work is delivered.
func (pe *PartitionedEngine) Completions() <-chan Completion { return pe.done }

// StopExecutors lets the executors finish in-flight work and exit; no
// RoundDeferred calls may follow. The caller must drain Completions.
func (pe *PartitionedEngine) StopExecutors() {
	if pe.jobs == nil {
		return
	}
	pe.stopOnce.Do(func() {
		for _, ch := range pe.jobs {
			close(ch)
		}
	})
}

func (pe *PartitionedEngine) runExecutor(s int) {
	e := pe.shards[s]
	for plan := range pe.jobs[s] {
		if err := pe.Err(); err != nil {
			pe.inflight.Add(-1)
			pe.done <- Completion{Round: plan.round, Err: err, Partition: s}
			continue
		}
		start := time.Now()
		executed, err := e.execute(plan)
		if err != nil {
			pe.setFatal(err)
		}
		// Decrement before sending: the plan's effects are fully applied, so
		// a quiescing migration may proceed even while the completion is
		// still in flight to the caller.
		pe.inflight.Add(-1)
		pe.done <- Completion{Round: plan.round, Executed: executed, Exec: time.Since(start), Err: err, Partition: s}
	}
}

// RoundDeferred schedules one super-round and hands each shard's plan to its
// executor — the partitioned analogue of Pipeline.Round. While waiting for
// executor capacity, completions are delivered through deliver (which must
// not call back into the engine). StartExecutors must have been called.
func (pe *PartitionedEngine) RoundDeferred(deliver func(Completion)) (RoundResult, error) {
	if err := pe.Err(); err != nil {
		return RoundResult{}, err
	}
	res, err := pe.schedule(deliver)
	if err != nil {
		return res, err
	}
	for s := range pe.plans {
		if len(pe.plans[s].steps) == 0 {
			continue
		}
		// Count before sending so the migration quiesce never undercounts:
		// the executor decrements only after applying the plan.
		pe.inflight.Add(1)
		for {
			select {
			case pe.jobs[s] <- pe.plans[s]:
			case c := <-pe.done:
				deliver(c)
				continue
			}
			break
		}
	}
	return res, nil
}
