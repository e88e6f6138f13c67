package datalog

import (
	"fmt"
	"time"

	"repro/internal/arena"
	"repro/internal/relation"
)

// Engine evaluates a Datalog program bottom-up, stratum by stratum, using
// semi-naive evaluation within each stratum. The program is compiled once;
// EDB relations are supplied per run.
//
// The engine supports two evaluation modes. Run is the cold path: it discards
// all fact sets and re-derives the fixpoint from the current EDB. It is the
// correctness oracle and the fallback. RunIncremental is the warm-start path
// for the scheduler's round loop: fact sets are retained across runs, EDB
// changes arrive as per-predicate insert/delete deltas, and only the
// consequences of those deltas are recomputed. Insert-only deltas whose
// affected predicates are free of negation and aggregation are propagated by
// seeding the semi-naive deltas directly (no fact is ever re-derived);
// non-monotone changes take the DRed path (see dred.go): deleted facts are
// over-deleted transitively, re-derived where an alternative proof exists,
// and the remainder propagates as small insert/delete deltas stratum by
// stratum. Changes reaching an aggregate rule fall back to clearing and
// re-deriving exactly the affected predicates. In every mode, unaffected
// predicates — and every unchanged EDB fact set with its hash indexes — are
// kept as-is.
//
// Index column masks are chosen at compile time: NewEngine registers the
// bound positions of every atom occurrence with the predicate, so fact sets
// build exactly the indexes the rules probe, eagerly, with uint64 hash
// buckets (see factSet).
type Engine struct {
	prog      *Program
	compiled  []*compiledRule
	stratumOf map[string]int
	numStrata int
	rulesBy   [][]int // stratum -> rule indexes
	idb       map[string]bool

	// masks lists, per predicate, the column subsets the compiled rules look
	// up; fact sets for the predicate eagerly maintain one index per mask.
	masks map[string][][]int

	// dependents maps a body predicate to the head predicates that consume
	// it (the edge set of the dependency graph, for affected-closure
	// computation); negatedPreds and aggBodyPreds mark predicates consumed
	// under negation or by an aggregate rule — facts flowing through those
	// edges do not propagate monotonically. rulesFor indexes the non-fact
	// rules by head predicate (DRed rederivation needs them); allPreds lists
	// every predicate the program mentions (see ensureFactSets).
	dependents   map[string][]string
	negatedPreds map[string]bool
	aggBodyPreds map[string]bool
	rulesFor     map[string][]int
	allPreds     []string

	// Naive switches off the delta optimisation; used by tests to verify the
	// semi-naive evaluator against the textbook fixpoint.
	Naive bool

	facts map[string]*factSet
	edb   map[string][]relation.Tuple
	// edbIdx indexes e.edb[pred] positions by tuple hash once a predicate
	// receives its first warm delta: insert dedup and delete become O(1) per
	// churned tuple instead of a delete-set build plus a full-slice rewrite
	// per round. An indexed predicate's rows are engine-owned, dense and
	// duplicate-free; SetEDB drops the index along with the rows.
	edbIdx map[string]*edbIndex

	// dirty marks predicates whose EDB was replaced wholesale via SetEDB
	// since the last run; their retained fact sets are stale.
	dirty map[string]bool
	// warm is true once facts reflects a completed run over the current EDB.
	warm bool

	// Non-monotone cost model. costModel selects how RunIncremental picks
	// between DRed propagation and affected-closure recompute: costAdaptive
	// (the default) predicts each strategy's round time from a per-strategy
	// EWMA of observed cost per work unit (churn for DRed, standing affected
	// size for recompute), falling back to the static churn factor until
	// observations exist; costStatic always applies the static rule; the
	// force values pin one path (tests and ablations). dredChurnFactor is
	// the static weight: DRed runs when churn * dredChurnFactor < total
	// size of the affected predicates.
	costModel       int
	dredChurnFactor int
	dredCost        strategyCost
	recomputeCost   strategyCost

	// Round-scoped allocation reuse. Delta sets, DRed bookkeeping sets and
	// the per-stratum delta maps live exactly one run: they are leased from
	// per-predicate pools (setPool/mapPool) and released — reset with their
	// capacity retained — when the run ends, so a steady-state warm round
	// re-fills retained memory instead of allocating. Leased sets clone
	// their copy-on-insert tuples into roundArena, reset with the leases
	// (persistent fact sets never lease and never touch the arena). workBuf
	// recycles the per-pass work-item slice.
	setPool    map[string][]*factSet
	leased     []leasedSet
	mapPool    []map[string]*factSet
	mapsOut    []map[string]*factSet
	roundArena arena.Slab[relation.Value]
	workBuf    []workItem

	// Stats from the last Run or RunIncremental.
	Stats RunStats
}

// leasedSet records one round-leased fact set for release into its
// predicate's pool.
type leasedSet struct {
	pred string
	f    *factSet
}

// Evaluation strategies reported in RunStats.Strategy.
const (
	// StrategyCold: full re-derivation from the EDB.
	StrategyCold = "cold"
	// StrategyNone: a warm run whose delta batch was empty.
	StrategyNone = "none"
	// StrategyMonotone: insert-only warm start via seeded semi-naive deltas.
	StrategyMonotone = "monotone"
	// StrategyDRed: delete-and-rederive propagation (dred.go).
	StrategyDRed = "dred"
	// StrategyRecompute: affected predicates cleared and re-derived (the
	// fallback for changes reaching an aggregate rule).
	StrategyRecompute = "recompute"
)

// RunStats reports evaluation effort for one run.
type RunStats struct {
	Iterations   int // total semi-naive iterations across strata
	FactsDerived int // IDB facts derived (deduplicated)
	RuleFirings  int // successful head emissions, pre-deduplication
	// Incremental is true when the run took a warm-start path (retained
	// fact sets, delta-driven recomputation) rather than a cold rebuild.
	Incremental bool
	// Strategy names the evaluation path taken (Strategy* constants).
	Strategy string
	// Overdeleted and Rederived count DRed's transitively deleted facts and
	// the subset that survived via an alternative derivation.
	Overdeleted int
	Rederived   int
}

// EDBDelta describes the change to one extensional predicate between runs.
// Insert is applied before Delete — a tuple appearing in both ends up absent,
// matching an insert-then-remove event sequence (the scheduler appends
// executed requests to the history and garbage-collects finished
// transactions within the same round). Both sides are interpreted with set
// semantics: deleting a tuple removes it entirely, inserting a present tuple
// is a no-op.
type EDBDelta struct {
	Insert []relation.Tuple
	Delete []relation.Tuple
}

// NewEngine compiles the program.
func NewEngine(prog *Program) (*Engine, error) {
	stratumOf, numStrata, err := Stratify(prog)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		prog:         prog,
		stratumOf:    stratumOf,
		numStrata:    numStrata,
		idb:          prog.IDB(),
		edb:          make(map[string][]relation.Tuple),
		edbIdx:       make(map[string]*edbIndex),
		masks:        make(map[string][][]int),
		dependents:   make(map[string][]string),
		negatedPreds: make(map[string]bool),
		aggBodyPreds: make(map[string]bool),
		rulesFor:     make(map[string][]int),
		dirty:        make(map[string]bool),
		setPool:      make(map[string][]*factSet),

		costModel:       costAdaptive,
		dredChurnFactor: defaultDRedChurnFactor,
	}
	e.rulesBy = make([][]int, numStrata)
	seenPred := make(map[string]bool)
	addPred := func(p string) {
		if !seenPred[p] {
			seenPred[p] = true
			e.allPreds = append(e.allPreds, p)
		}
	}
	for i, r := range prog.Rules {
		c, err := compileRule(r)
		if err != nil {
			return nil, err
		}
		c.idx = i
		e.compiled = append(e.compiled, c)
		s := stratumOf[r.Head.Pred]
		e.rulesBy[s] = append(e.rulesBy[s], i)
		e.rulesFor[r.Head.Pred] = append(e.rulesFor[r.Head.Pred], i)
		addPred(r.Head.Pred)
		for _, l := range r.Body {
			if l.Kind == LitAtom {
				addPred(l.Atom.Pred)
			}
		}
	}
	// Register every probed column mask with its predicate and resolve each
	// step to its index slot; the dependency graph rides along. The
	// head-pinned columns of step 0 (DRed rederivation) deliberately get no
	// eager index: rederivation probes are rare next to the insert/delete
	// churn on the probed predicates, so maintaining an extra index per rule
	// on every EDB change would cost far more than the pinned scans save —
	// the pin values filter the step-0 enumeration instead. Where step 0
	// already has a constant-column index, the pinned scan narrows to that
	// bucket for free.
	for _, c := range e.compiled {
		for si := range c.steps {
			m := &c.steps[si]
			if m.lit.Kind != LitAtom || len(m.lookupCols) == 0 {
				continue
			}
			m.lookupIdx = e.registerMask(m.lit.Atom.Pred, m.lookupCols)
		}
		c.buildFns() // index slots are final: compile the step chain
	}
	for _, r := range prog.Rules {
		agg := r.HasAggregate()
		for _, l := range r.Body {
			if l.Kind != LitAtom {
				continue
			}
			p := l.Atom.Pred
			seen := false
			for _, h := range e.dependents[p] {
				if h == r.Head.Pred {
					seen = true
					break
				}
			}
			if !seen {
				e.dependents[p] = append(e.dependents[p], r.Head.Pred)
			}
			if l.Negated {
				e.negatedPreds[p] = true
			}
			if agg {
				e.aggBodyPreds[p] = true
			}
		}
	}
	return e, nil
}

// registerMask records that pred is probed on cols, returning the index slot.
func (e *Engine) registerMask(pred string, cols []int) int {
	masks := e.masks[pred]
	for i, m := range masks {
		if len(m) != len(cols) {
			continue
		}
		same := true
		for j := range m {
			if m[j] != cols[j] {
				same = false
				break
			}
		}
		if same {
			return i
		}
	}
	e.masks[pred] = append(masks, append([]int(nil), cols...))
	return len(masks)
}

// SetEDB installs the tuples of an extensional predicate for the next run,
// replacing any previous tuples for that predicate. The predicate must not be
// defined by a rule, and the arity must match its uses in the program. A
// predicate never mentioned in the program is accepted (and simply unused) so
// that callers can bind a fixed set of scheduler relations to any protocol.
func (e *Engine) SetEDB(pred string, rows []relation.Tuple) error {
	if e.idb[pred] {
		return fmt.Errorf("datalog: %s is defined by rules; cannot set as EDB", pred)
	}
	if want, ok := e.prog.Arities[pred]; ok {
		for _, t := range rows {
			if len(t) != want {
				return fmt.Errorf("datalog: EDB %s expects arity %d, got tuple of %d", pred, want, len(t))
			}
		}
	}
	e.edb[pred] = rows
	delete(e.edbIdx, pred) // the index belonged to the replaced rows
	e.dirty[pred] = true
	return nil
}

// SetEDBRelation is SetEDB from a Relation.
func (e *Engine) SetEDBRelation(pred string, r *relation.Relation) error {
	return e.SetEDB(pred, r.Rows())
}

// newSet creates a fact set for pred with its registered indexes.
func (e *Engine) newSet(pred string) *factSet {
	return newFactSet(e.prog.Arities[pred], e.masks[pred])
}

// newSetSized is newSet with the arity forced when the program does not pin
// it (predicates only ever bound by the caller).
func (e *Engine) newSetSized(pred string, arity int) *factSet {
	f := e.newSet(pred)
	if f.arity == 0 {
		f.arity = arity
	}
	return f
}

// Pools are capped so one deep cold run (whose fixpoint leases a set per
// predicate per iteration) cannot pin memory proportional to its depth;
// steady-state warm rounds use far fewer leases than the caps.
const (
	maxPooledSetsPerPred = 8
	maxPooledMaps        = 16
)

// leaseSet leases a round-scoped fact set for pred: taken from the
// predicate's pool when one is available, released (reset, capacity
// retained) by releaseRound when the run ends. Leased sets clone
// copy-on-insert tuples into the round arena — they must never be stored
// into state that outlives the run (e.facts always gets newSet sets, and
// tuples leaving a leased set for a persistent one are re-cloned).
func (e *Engine) leaseSet(pred string) *factSet {
	var f *factSet
	if pl := e.setPool[pred]; len(pl) > 0 {
		f = pl[len(pl)-1]
		pl[len(pl)-1] = nil
		e.setPool[pred] = pl[:len(pl)-1]
	} else {
		f = e.newSet(pred)
	}
	f.clones = &e.roundArena
	e.leased = append(e.leased, leasedSet{pred, f})
	return f
}

// leaseSetSized is leaseSet with the arity forced when neither the program
// nor a previous lease pinned it.
func (e *Engine) leaseSetSized(pred string, arity int) *factSet {
	f := e.leaseSet(pred)
	if f.arity == 0 {
		f.arity = arity
	}
	return f
}

// leaseMap leases a round-scoped predicate-to-set map.
func (e *Engine) leaseMap() map[string]*factSet {
	var m map[string]*factSet
	if n := len(e.mapPool); n > 0 {
		m = e.mapPool[n-1]
		e.mapPool[n-1] = nil
		e.mapPool = e.mapPool[:n-1]
	} else {
		m = make(map[string]*factSet)
	}
	e.mapsOut = append(e.mapsOut, m)
	return m
}

// releaseRound returns every leased set and map to its pool (reset, capacity
// retained, pool size capped) and recycles the round arena. Runs once per
// Run/RunIncremental, after which no round-scoped structure is reachable.
func (e *Engine) releaseRound() {
	for i, ls := range e.leased {
		ls.f.clones = nil
		if pl := e.setPool[ls.pred]; len(pl) < maxPooledSetsPerPred {
			ls.f.reset()
			e.setPool[ls.pred] = append(pl, ls.f)
		}
		e.leased[i] = leasedSet{}
	}
	e.leased = e.leased[:0]
	for i, m := range e.mapsOut {
		if len(e.mapPool) < maxPooledMaps {
			clear(m)
			e.mapPool = append(e.mapPool, m)
		}
		e.mapsOut[i] = nil
	}
	e.mapsOut = e.mapsOut[:0]
	e.roundArena.Reset()
}

// factsFor returns (creating if needed) the fact set of pred.
func (e *Engine) factsFor(pred string) *factSet {
	f, ok := e.facts[pred]
	if !ok {
		f = e.newSet(pred)
		e.facts[pred] = f
	}
	return f
}

// ensureFactSets pre-creates a fact set for every predicate the program
// mentions, so the DRed passes can index e.facts directly and evaluation
// never writes the map mid-pass.
func (e *Engine) ensureFactSets() {
	for _, p := range e.allPreds {
		if _, ok := e.facts[p]; !ok {
			e.facts[p] = e.newSet(p)
		}
	}
}

// Run evaluates the program against the current EDB from scratch, replacing
// all derived facts from any previous run. It is the cold path and the
// correctness oracle for RunIncremental.
func (e *Engine) Run() error {
	defer e.releaseRound()
	e.Stats = RunStats{Strategy: StrategyCold}
	// Invalidate warm state up front: a mid-run error must not leave
	// half-built fact sets behind a warm flag.
	e.warm = false
	e.facts = make(map[string]*factSet)
	for pred, rows := range e.edb {
		f := e.factsFor(pred)
		if len(rows) > 0 {
			f.arity = len(rows[0])
		}
		for _, t := range rows {
			if _, _, err := f.add(t, false); err != nil {
				return err
			}
		}
	}
	// Program facts.
	for _, r := range e.prog.Rules {
		if !r.IsFact() {
			continue
		}
		t, err := FactTuple(r)
		if err != nil {
			return err
		}
		if _, _, err := e.factsFor(r.Head.Pred).add(t, false); err != nil {
			return err
		}
	}
	e.ensureFactSets()
	for s := 0; s < e.numStrata; s++ {
		if err := e.runStratum(s, e.rulesBy[s], stratumOpts{}); err != nil {
			return err
		}
	}
	e.warm = true
	clear(e.dirty)
	return nil
}

// RunIncremental evaluates the program after applying the given EDB deltas,
// reusing the retained fact sets of the previous run. Predicates untouched by
// the change keep their facts and indexes; insert-only changes whose affected
// closure is free of negation and aggregation are propagated by seeding the
// semi-naive deltas; deleting (or negation-affected) changes propagate DRed
// style; changes reaching an aggregate rule clear and re-derive exactly the
// affected predicates. With no previous run (or in Naive mode) it falls back
// to a cold Run over the updated EDB, so a RunIncremental sequence is always
// equivalent to a cold run over the final EDB state.
func (e *Engine) RunIncremental(changed map[string]EDBDelta) error {
	// Validate the whole batch before touching any state, so a rejected
	// delta leaves the engine exactly as it was. For predicates the program
	// never mentions, the arity is pinned by the retained facts, the
	// existing rows, or the batch's first tuple.
	for pred, d := range changed {
		if e.idb[pred] {
			return fmt.Errorf("datalog: %s is defined by rules; cannot apply EDB delta", pred)
		}
		want, known := e.prog.Arities[pred]
		if !known {
			if f, ok := e.facts[pred]; ok && f.len() > 0 {
				want = f.arity
			} else if rows := e.edb[pred]; len(rows) > 0 {
				want = len(rows[0])
			} else if len(d.Insert) > 0 {
				want = len(d.Insert[0])
			} else {
				continue
			}
		}
		for _, t := range d.Insert {
			if len(t) != want {
				return fmt.Errorf("datalog: EDB %s expects arity %d, got tuple of %d", pred, want, len(t))
			}
		}
	}
	// From here on state is mutated: drop the warm flag and re-raise it only
	// on success, so an error can never leave half-applied fact sets behind
	// a warm engine.
	warm := e.warm
	e.warm = false
	for pred, d := range changed {
		e.applyEDBDelta(pred, d)
	}
	if !warm || e.Naive {
		return e.Run()
	}
	// Round-scoped leases (delta sets, DRed bookkeeping, stratum maps) are
	// all dead once the run ends — release them back to the pools. Run's own
	// defer covers the cold fallback above.
	defer e.releaseRound()

	// Roots of the change: delta'd predicates plus SetEDB replacements.
	var roots []string
	hasDelete := false
	for pred, d := range changed {
		if len(d.Insert) == 0 && len(d.Delete) == 0 {
			continue
		}
		if !e.dirty[pred] {
			roots = append(roots, pred)
		}
		if len(d.Delete) > 0 {
			hasDelete = true
		}
	}
	for pred := range e.dirty {
		// A wholesale replacement may have removed facts: treat it as a
		// deleting change; the chosen path rebuilds or diffs the fact set.
		roots = append(roots, pred)
		hasDelete = true
	}
	if len(roots) == 0 {
		e.Stats = RunStats{Incremental: true, Strategy: StrategyNone}
		e.warm = true
		return nil
	}

	affected := e.affectedClosure(roots)
	monotone := !hasDelete
	if monotone {
		for p := range affected {
			if e.negatedPreds[p] || e.aggBodyPreds[p] {
				monotone = false
				break
			}
		}
	}

	if monotone {
		e.Stats = RunStats{Incremental: true, Strategy: StrategyMonotone}
		// Warm start proper: apply inserts to the retained fact sets and
		// seed the semi-naive deltas with exactly the new tuples. Nothing is
		// cleared; no existing fact is re-derived.
		carry := e.leaseMap()
		for pred, d := range changed {
			f := e.factsFor(pred)
			if f.len() == 0 && len(d.Insert) > 0 {
				f.arity = len(d.Insert[0])
			}
			for _, t := range d.Insert {
				added, stored, err := f.add(t, false)
				if err != nil {
					return err
				}
				if added {
					cs, ok := carry[pred]
					if !ok {
						cs = e.leaseSet(pred)
						cs.arity = f.arity
						carry[pred] = cs
					}
					if _, _, err := cs.add(stored, false); err != nil {
						return err
					}
				}
			}
		}
		e.ensureFactSets()
		for s := 0; s < e.numStrata; s++ {
			if err := e.runStratum(s, e.rulesBy[s], stratumOpts{seed: carry, carry: carry}); err != nil {
				return err
			}
		}
		e.warm = true
		return nil
	}

	// Non-monotone change. Changes reaching an aggregate rule fall back to
	// clearing and re-deriving the affected closure (aggregates have no
	// cheap delete rule). Otherwise a cost model picks the propagation:
	// DRed's overdelete/rederive costs work proportional to the delta's
	// consequences, which wins when the churn is small next to the standing
	// fact sets (GC trickle, victim removal); when the batch replaces a
	// large fraction of the affected predicates anyway (bulk admission
	// rounds), clearing and re-deriving them is cheaper than over-deleting
	// nearly every fact one by one. The adaptive model predicts each
	// strategy's round time from observed history (see chooseDRed); every
	// non-monotone round feeds its measured time back into the model.
	aggAffected := false
	for p := range affected {
		if e.aggBodyPreds[p] {
			aggAffected = true
			break
		}
	}
	churn := 0
	for _, d := range changed {
		churn += len(d.Insert) + len(d.Delete)
	}
	for pred := range e.dirty {
		// Wholesale replacement: bound the symmetric difference by both
		// versions' sizes.
		churn += len(e.edb[pred]) + e.FactCount(pred)
	}
	affectedSize := 0
	for p := range affected {
		affectedSize += e.FactCount(p)
	}
	useDRed := !aggAffected && e.chooseDRed(churn, affectedSize)
	start := time.Now()
	var err error
	if useDRed {
		err = e.runDRed(changed)
	} else {
		err = e.recomputeAffected(changed, affected)
	}
	if err != nil {
		return err
	}
	elapsed := float64(time.Since(start).Nanoseconds())
	factor := float64(e.dredChurnFactor)
	if factor <= 0 {
		factor = 1
	}
	if useDRed {
		e.dredCost.Observe(elapsed, churn)
		// Relax the unmeasured side toward the static-consistent estimate
		// so a stale spike decays and the strategy gets re-tried.
		e.recomputeCost.DecayToward(e.dredCost.PerUnit / factor)
	} else if !aggAffected {
		// Aggregate fallbacks are forced, not chosen: their timings would
		// bias the recompute estimate with rounds DRed could never take.
		e.recomputeCost.Observe(elapsed, affectedSize)
		e.dredCost.DecayToward(e.recomputeCost.PerUnit * factor)
	}
	return nil
}

// recomputeAffected is the aggregate fallback for non-monotone changes:
// update the changed EDB fact sets in place (insert before delete, per the
// EDBDelta contract), then clear and re-derive exactly the predicates
// downstream of the change. Unaffected predicates — typically the bulk of
// the EDB — are retained with their indexes.
func (e *Engine) recomputeAffected(changed map[string]EDBDelta, affected map[string]bool) error {
	e.Stats = RunStats{Incremental: true, Strategy: StrategyRecompute}
	rebuilt := make(map[string]bool, len(e.dirty))
	for pred := range e.dirty {
		// A wholesale replacement may have removed facts: rebuild the fact
		// set from the current EDB rows.
		rebuilt[pred] = true
		f := e.newSet(pred)
		rows := e.edb[pred]
		if len(rows) > 0 {
			f.arity = len(rows[0])
		}
		for _, t := range rows {
			if _, _, err := f.add(t, false); err != nil {
				return err
			}
		}
		e.facts[pred] = f
	}
	clear(e.dirty)
	for pred, d := range changed {
		if rebuilt[pred] {
			continue // already rebuilt from the delta-applied EDB rows
		}
		f := e.factsFor(pred)
		if f.len() == 0 && len(d.Insert) > 0 {
			f.arity = len(d.Insert[0])
		}
		for _, t := range d.Insert {
			if _, _, err := f.add(t, false); err != nil {
				return err
			}
		}
		for _, t := range d.Delete {
			f.remove(t)
		}
	}
	for p := range affected {
		if e.idb[p] {
			e.facts[p] = e.newSet(p)
		}
	}
	for _, r := range e.prog.Rules {
		if !r.IsFact() || !affected[r.Head.Pred] {
			continue
		}
		t, err := FactTuple(r)
		if err != nil {
			return err
		}
		if _, _, err := e.factsFor(r.Head.Pred).add(t, false); err != nil {
			return err
		}
	}
	e.ensureFactSets()
	for s := 0; s < e.numStrata; s++ {
		var idx []int
		for _, ri := range e.rulesBy[s] {
			if affected[e.compiled[ri].rule.Head.Pred] {
				idx = append(idx, ri)
			}
		}
		if err := e.runStratum(s, idx, stratumOpts{}); err != nil {
			return err
		}
	}
	e.warm = true
	return nil
}

// edbIndex maps tuple hashes to positions in a predicate's bookkeeping rows.
type edbIndex struct {
	buckets map[uint64][]int32
}

// applyEDBDelta updates the bookkeeping EDB rows (the cold-run source of
// truth) for one predicate: inserts of present tuples are dropped and
// deletes remove their tuple, so the rows keep set semantics. The first
// delta for a predicate copies the rows into an engine-owned deduplicated
// slice and builds the hash index; from then on maintenance hashes only the
// delta's tuples (the flat-slice version rebuilt the whole slice through a
// delete set every deleting round).
func (e *Engine) applyEDBDelta(pred string, d EDBDelta) {
	if len(d.Insert) == 0 && len(d.Delete) == 0 {
		return
	}
	rows := e.edb[pred]
	ix := e.edbIdx[pred]
	if ix == nil {
		// Build: dedup-copy the rows (the SetEDB slice is caller-owned and
		// may hold duplicates; the index owns its dense, distinct version).
		ix = &edbIndex{buckets: make(map[uint64][]int32, len(rows)+len(d.Insert))}
		owned := make([]relation.Tuple, 0, len(rows)+len(d.Insert))
		for _, t := range rows {
			if ix.insert(owned, t) {
				owned = append(owned, t)
			}
		}
		rows = owned
		e.edbIdx[pred] = ix
	}
	for _, t := range d.Insert {
		if ix.insert(rows, t) {
			rows = append(rows, t)
		}
	}
	for _, t := range d.Delete {
		pos, ok := ix.remove(rows, t)
		if !ok {
			continue
		}
		last := int32(len(rows) - 1)
		if pos != last {
			moved := rows[last]
			rows[pos] = moved
			ix.repoint(moved, last, pos)
		}
		rows[last] = nil
		rows = rows[:last]
	}
	e.edb[pred] = rows
}

// insert registers t at position len(rows) unless an equal tuple is already
// indexed, reporting whether the caller should append it.
func (ix *edbIndex) insert(rows []relation.Tuple, t relation.Tuple) bool {
	h := t.Hash()
	for _, p := range ix.buckets[h] {
		if rows[p].Equal(t) {
			return false
		}
	}
	ix.buckets[h] = append(ix.buckets[h], int32(len(rows)))
	return true
}

// remove unlinks t from the index and returns its row position.
func (ix *edbIndex) remove(rows []relation.Tuple, t relation.Tuple) (int32, bool) {
	h := t.Hash()
	b := ix.buckets[h]
	for i, p := range b {
		if rows[p].Equal(t) {
			b[i] = b[len(b)-1]
			if len(b) == 1 {
				delete(ix.buckets, h)
			} else {
				ix.buckets[h] = b[:len(b)-1]
			}
			return p, true
		}
	}
	return 0, false
}

// repoint rewrites moved's index entry after a swap-remove moved it from
// position from to position to.
func (ix *edbIndex) repoint(moved relation.Tuple, from, to int32) {
	b := ix.buckets[moved.Hash()]
	for i, p := range b {
		if p == from {
			b[i] = to
			return
		}
	}
}

// affectedClosure returns the predicates reachable from roots in the
// dependency graph (roots included).
func (e *Engine) affectedClosure(roots []string) map[string]bool {
	out := make(map[string]bool)
	queue := append([]string(nil), roots...)
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		if out[p] {
			continue
		}
		out[p] = true
		queue = append(queue, e.dependents[p]...)
	}
	return out
}

// enablerPass is a DRed insertion pass driven through a negated literal: the
// negOcc-th negated atom must match a tuple of negDelta (a net-deleted set of
// its predicate) in addition to being absent from the current facts, so the
// pass derives exactly the facts newly enabled by those deletions.
type enablerPass struct {
	ri       int
	negOcc   int
	negDelta *factSet
}

// stratumOpts parameterises runStratum. With seed == nil the stratum runs
// cold: every rule is evaluated in full once, then the semi-naive delta loop
// runs. With a seed, the initial full pass is skipped and the delta loop
// starts from the seeded tuples (which may belong to lower strata or the EDB
// — the warm-start paths). carry, when non-nil, additionally records every
// newly derived fact, seeding later strata. enablers run before the delta
// loop (DRed insertion through negation). onAdd, when non-nil, observes every
// genuinely inserted fact (DRed classifies rederivations vs insertions).
type stratumOpts struct {
	seed     map[string]*factSet
	carry    map[string]*factSet
	enablers []enablerPass
	onAdd    func(pred string, t relation.Tuple)
}

// workItem is one rule evaluation of a pass: rule ri evaluated under spec
// (a semi-naive delta substitution, a DRed overdelete or enabler pass, or a
// full evaluation).
type workItem struct {
	ri   int
	spec evalSpec
}

// runStratum evaluates the given rules of stratum s to fixpoint.
func (e *Engine) runStratum(s int, ruleIdx []int, opts stratumOpts) error {
	if len(ruleIdx) == 0 && len(opts.enablers) == 0 {
		return nil
	}
	cold := opts.seed == nil
	if cold {
		// Aggregate rules first: their bodies live strictly below this
		// stratum, so a single evaluation is complete, and same-stratum rules
		// may then consume the aggregated predicate.
		for _, ri := range ruleIdx {
			c := e.compiled[ri]
			if !c.hasAgg || c.rule.IsFact() {
				continue
			}
			if err := e.evalAggregate(c); err != nil {
				return err
			}
		}
	}

	delta := e.leaseMap()
	if !cold {
		for pred, d := range opts.seed {
			if d.len() > 0 {
				delta[pred] = d
			}
		}
	}
	sink := func(m map[string]*factSet, pred string) *factSet {
		d, ok := m[pred]
		if !ok {
			d = e.leaseSet(pred)
			d.arity = e.factsFor(pred).arity
			m[pred] = d
		}
		return d
	}
	// addDerived inserts a derived head tuple into the full fact set (cloned
	// on genuine insertion), records new facts in next and carry, and feeds
	// the DRed classification hook.
	addDerived := func(pred string, t relation.Tuple, next map[string]*factSet) error {
		added, stored, err := e.factsFor(pred).add(t, true)
		if err != nil || !added {
			return err
		}
		e.Stats.FactsDerived++
		if _, _, err := sink(next, pred).add(stored, false); err != nil {
			return err
		}
		if opts.carry != nil {
			if _, _, err := sink(opts.carry, pred).add(stored, false); err != nil {
				return err
			}
		}
		if opts.onAdd != nil {
			opts.onAdd(pred, stored)
		}
		return nil
	}
	// One emit closure serves every work item of the stratum: the current
	// head predicate and sink map travel in the captured variables instead
	// of a fresh closure per item.
	var emitPred string
	var emitNext map[string]*factSet
	emit := func(t relation.Tuple) error {
		e.Stats.RuleFirings++
		return addDerived(emitPred, t, emitNext)
	}
	// evalPass runs one pass's work items.
	evalPass := func(items []workItem, next map[string]*factSet) error {
		emitNext = next
		for _, it := range items {
			c := e.compiled[it.ri]
			emitPred = c.rule.Head.Pred
			if err := e.evalRule(c, c.scratch, it.spec, emit); err != nil {
				return err
			}
		}
		return nil
	}

	if cold {
		items := e.workBuf[:0]
		for _, ri := range ruleIdx {
			c := e.compiled[ri]
			if c.hasAgg || c.rule.IsFact() {
				continue
			}
			items = append(items, workItem{ri: ri, spec: evalSpec{deltaOcc: -1, negOcc: -1}})
		}
		e.workBuf = items[:0]
		if err := evalPass(items, delta); err != nil {
			return err
		}
		e.Stats.Iterations++
	}

	// DRed insertion-through-negation passes: evaluated once, before the
	// loop; their emissions seed the loop's delta like any other insertion.
	if len(opts.enablers) > 0 {
		items := e.workBuf[:0]
		for _, ep := range opts.enablers {
			items = append(items, workItem{ri: ep.ri, spec: evalSpec{
				deltaOcc: -1, negOcc: ep.negOcc, negDelta: ep.negDelta, negEnable: true,
			}})
		}
		e.workBuf = items[:0]
		if err := evalPass(items, delta); err != nil {
			return err
		}
	}

	for {
		anyDelta := false
		for _, d := range delta {
			if d.len() > 0 {
				anyDelta = true
				break
			}
		}
		if !anyDelta {
			return nil
		}
		next := e.leaseMap()
		if e.Naive {
			for _, ri := range ruleIdx {
				c := e.compiled[ri]
				if c.hasAgg || c.rule.IsFact() {
					continue
				}
				spec := evalSpec{deltaOcc: -1, negOcc: -1}
				emitPred, emitNext = c.rule.Head.Pred, next
				if err := e.evalRule(c, c.scratch, spec, emit); err != nil {
					return err
				}
			}
		} else {
			// One pass per occurrence of a predicate with pending delta,
			// with that occurrence reading only the delta. A rule with no
			// delta'd body atom cannot fire again and is skipped implicitly.
			items := e.workBuf[:0]
			base := evalSpec{negOcc: -1}
			for _, ri := range ruleIdx {
				c := e.compiled[ri]
				if c.hasAgg || c.rule.IsFact() {
					continue
				}
				items = c.deltaPasses(items, delta, base)
			}
			e.workBuf = items[:0]
			if err := evalPass(items, next); err != nil {
				return err
			}
		}
		e.Stats.Iterations++
		delta = next
	}
}

// evalSpec parameterises one evalRule call.
type evalSpec struct {
	// delta substitutes the deltaOcc-th positive atom's fact set (semi-naive
	// delta pass); deltaOcc == -1 reads all atoms from the full sets.
	delta    *factSet
	deltaOcc int
	// negDelta drives the negOcc-th negated atom from a delta set (DRed):
	// the atom's key must match a negDelta tuple; with negEnable it must
	// additionally be absent from the full set (insertion enabled by a
	// deletion), without it the delta match replaces the absence check
	// (overdeletion caused by an insertion).
	negDelta  *factSet
	negOcc    int
	negEnable bool
	// negOld, during an overdeletion pass, maps negated predicates to the
	// facts inserted into them by the current batch: absence checks ignore
	// those facts, restoring the pre-change view the invalidated derivations
	// were built against.
	negOld map[string]*factSet
	// oldSets, during an overdeletion pass, maps predicates to their
	// net-deleted facts. Positive occurrences AFTER the delta occurrence
	// additionally enumerate these tuples — the delta×old half of the
	// semi-naive delta-join expansion: the pass driven through the earliest
	// deleted occurrence sees the other deleted facts through the old view,
	// so derivations pairing two deletions are found without temporarily
	// restoring deleted facts into the indexed fact sets. Occurrences
	// before the delta read the new (post-delete) state; passes driven
	// through later occurrences then contribute exactly the derivations
	// whose earlier atoms survived.
	oldSets map[string]*factSet
	// pinned activates the scratch's head pins (DRed rederivation): every
	// binding or arithmetic assignment of a pinned variable must equal the
	// pinned value, pruning the enumeration to derivations of one target
	// head tuple.
	pinned bool
}

// evalAggregate evaluates an aggregate rule: the body is enumerated once
// (its predicates are in strictly lower strata), bindings are grouped by the
// non-aggregate head slots, and each aggregate ranges over the distinct
// values of its variable within the group. Groups are keyed by uint64 tuple
// hashes with equality verification on collisions (the same machinery as
// factSet and relation.TupleSet) — no key strings are ever built.
func (e *Engine) evalAggregate(c *compiledRule) error {
	type aggGroup struct {
		key  relation.Tuple
		seen []*relation.ValueSet // per aggregate slot: distinct values
	}
	buckets := make(map[uint64][]*aggGroup)
	var order []*aggGroup
	keyBuf := make(relation.Tuple, len(c.groupIdx))

	spec := evalSpec{deltaOcc: -1, negOcc: -1}
	err := e.evalRule(c, c.scratch, spec, func(raw relation.Tuple) error {
		e.Stats.RuleFirings++
		for i, gi := range c.groupIdx {
			keyBuf[i] = raw[gi]
		}
		h := keyBuf.Hash()
		var g *aggGroup
		for _, cand := range buckets[h] {
			if cand.key.Equal(keyBuf) {
				g = cand
				break
			}
		}
		if g == nil {
			g = &aggGroup{key: keyBuf.Clone(), seen: make([]*relation.ValueSet, len(c.aggIdx))}
			for i := range g.seen {
				g.seen[i] = relation.NewValueSet(4)
			}
			buckets[h] = append(buckets[h], g)
			order = append(order, g)
		}
		for i, ai := range c.aggIdx {
			g.seen[i].Add(raw[ai])
		}
		return nil
	})
	if err != nil {
		return err
	}

	out := e.factsFor(c.rule.Head.Pred)
	for _, g := range order {
		t := make(relation.Tuple, len(c.head))
		for i, gi := range c.groupIdx {
			t[gi] = g.key[i]
		}
		for i, ai := range c.aggIdx {
			vals := g.seen[i].Values()
			switch c.head[ai].agg {
			case AggCount:
				t[ai] = relation.Int(int64(len(vals)))
			case AggSum:
				var s int64
				for _, v := range vals {
					if v.Kind() == relation.KindInt {
						s += v.AsInt()
					}
				}
				t[ai] = relation.Int(s)
			case AggMin:
				if len(vals) == 0 {
					return fmt.Errorf("datalog: min over empty group in %s", c.rule)
				}
				min := vals[0]
				for _, v := range vals[1:] {
					if v.Compare(min) < 0 {
						min = v
					}
				}
				t[ai] = min
			case AggMax:
				if len(vals) == 0 {
					return fmt.Errorf("datalog: max over empty group in %s", c.rule)
				}
				max := vals[0]
				for _, v := range vals[1:] {
					if v.Compare(max) > 0 {
						max = v
					}
				}
				t[ai] = max
			}
		}
		added, _, err := out.add(t, false)
		if err != nil {
			return err
		}
		if added {
			e.Stats.FactsDerived++
		}
	}
	return nil
}

// FactCount returns the number of stored tuples of a predicate without
// materialising a relation — a cheap consistency probe for callers
// maintaining incremental mirrors of the EDB.
func (e *Engine) FactCount(pred string) int {
	if f, ok := e.facts[pred]; ok {
		return f.len()
	}
	return 0
}

// Facts returns the current tuples of a predicate (EDB or derived) as a
// relation with a dynamically typed schema. Unknown predicates yield an
// empty zero-arity relation.
func (e *Engine) Facts(pred string) *relation.Relation {
	if f, ok := e.facts[pred]; ok {
		return f.relation()
	}
	ar := e.prog.Arities[pred]
	return relation.New(anySchema(ar))
}

// Query runs the program against the given EDB and returns one predicate.
func Query(prog *Program, edb map[string]*relation.Relation, pred string) (*relation.Relation, error) {
	e, err := NewEngine(prog)
	if err != nil {
		return nil, err
	}
	for p, r := range edb {
		if err := e.SetEDBRelation(p, r); err != nil {
			return nil, err
		}
	}
	if err := e.Run(); err != nil {
		return nil, err
	}
	return e.Facts(pred), nil
}
