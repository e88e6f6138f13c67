package datalog

import (
	"sort"

	"repro/internal/costmodel"
	"repro/internal/relation"
)

// defaultDRedChurnFactor is the default weight of the static churn-vs-
// affected-size rule (see chooseDRed). Chosen so that trickle rounds
// (scheduler GC, victim removal — churn a few percent of the standing sets)
// take DRed while bulk-replacement rounds stay on the cheaper
// clear-and-recompute path.
const defaultDRedChurnFactor = 4

// Cost model selection (Engine.costModel): adaptive prediction from observed
// per-strategy round times, the static churn rule, or a pinned path (tests
// and ablations force one strategy deterministically).
const (
	costAdaptive = iota
	costStatic
	costForceDRed
	costForceRecompute
)

// strategyCost is the shared adaptive cost EWMA (see internal/costmodel,
// which the SQL executor's view-maintenance choice reuses).
type strategyCost = costmodel.EWMA

// chooseDRed decides whether a non-monotone change propagates DRed-style or
// recomputes the affected closure. The adaptive model predicts each
// strategy's round time as its observed per-unit cost times this round's
// work (costmodel.Choose), degenerating to the static churn rule until real
// measurements exist.
func (e *Engine) chooseDRed(churn, affectedSize int) bool {
	switch e.costModel {
	case costForceDRed:
		// Nothing standing means nothing to propagate into: recompute is a
		// trivial reset (mirrors the static rule at factor 0).
		return affectedSize > 0
	case costForceRecompute:
		return false
	}
	if e.costModel == costStatic {
		return churn*e.dredChurnFactor < affectedSize
	}
	if affectedSize == 0 {
		return false
	}
	return costmodel.Choose(&e.dredCost, &e.recomputeCost, churn, affectedSize, e.dredChurnFactor)
}

// DRed-style delete propagation (Gupta, Mumick & Subrahmanian): a
// non-monotone EDB change is propagated stratum by stratum as small
// insert/delete deltas instead of clearing and re-deriving whole predicate
// closures. Per stratum:
//
//  1. Overdelete — a semi-naive fixpoint over deletion deltas computes every
//     stored fact whose derivations might have used a deleted fact (driven
//     through positive atoms) or a newly inserted fact under negation
//     (driven through negated atoms). Multi-delta derivations are found by
//     the delta-join expansion: in the pass driven through one occurrence,
//     occurrences after it additionally read the net-deleted facts of their
//     predicate (evalSpec.oldSets — the delta×delta/delta×old join passes),
//     so no deleted fact is ever restored into the indexed fact sets.
//  2. The over-deleted facts are physically removed.
//  3. Rederive + insert — each over-deleted fact is probed for an
//     alternative derivation with its head variables pinned (a goal-directed
//     evaluation that stops at the first proof; the pins filter each
//     binding step, deliberately without a dedicated index — see the mask
//     registration note in NewEngine). Probes run against the stable
//     post-removal state with insertions deferred. Survivors are
//     re-inserted and then a standard seeded semi-naive insert pass runs,
//     fed by re-derived facts, net insertions from below, and "enabler"
//     passes that derive the facts newly enabled by deletions under
//     negation.
//  4. The stratum's net change (overdeleted minus rederived; inserted minus
//     re-inserted) becomes the delta feeding higher strata.
//
// Strata whose rules consume no changed predicate are skipped entirely —
// that, plus the delta-driven joins, is what makes GC churn and victim
// removal cost proportional to their consequences rather than to the size of
// the affected predicates. Aggregate rules never take this path: the caller
// falls back to recomputeAffected when a change reaches one.

// runDRed applies the already-EDB-bookkept changes (plus pending SetEDB
// replacements) to the fact sets, computes the per-predicate net deltas, and
// propagates them stratum by stratum.
func (e *Engine) runDRed(changed map[string]EDBDelta) error {
	e.Stats = RunStats{Incremental: true, Strategy: StrategyDRed}
	insDone := e.leaseMap()
	delDone := e.leaseMap()

	// SetEDB replacements: diff the retained fact set against the new rows
	// (the rows already carry any same-batch deltas via applyDelta).
	rebuilt := make(map[string]bool, len(e.dirty))
	for pred := range e.dirty {
		rebuilt[pred] = true
		old := e.facts[pred]
		nf := e.newSet(pred)
		rows := e.edb[pred]
		if len(rows) > 0 {
			nf.arity = len(rows[0])
		} else if old != nil {
			nf.arity = old.arity
		}
		for _, t := range rows {
			if _, _, err := nf.add(t, false); err != nil {
				return err
			}
		}
		ins := e.leaseSetSized(pred, nf.arity)
		del := e.leaseSetSized(pred, nf.arity)
		for _, t := range nf.tuples {
			if old == nil || !old.contains(t) {
				if _, _, err := ins.add(t, false); err != nil {
					return err
				}
			}
		}
		if old != nil {
			for _, t := range old.tuples {
				if !nf.contains(t) {
					if _, _, err := del.add(t, false); err != nil {
						return err
					}
				}
			}
		}
		e.facts[pred] = nf
		if ins.len() > 0 {
			insDone[pred] = ins
		}
		if del.len() > 0 {
			delDone[pred] = del
		}
	}
	clear(e.dirty)

	// Delta'd predicates: apply insert-then-delete to the fact sets (the
	// EDBDelta contract) while recording the net change.
	for pred, d := range changed {
		if rebuilt[pred] {
			continue // already diffed from the replaced rows
		}
		f := e.factsFor(pred)
		if f.len() == 0 && len(d.Insert) > 0 {
			f.arity = len(d.Insert[0])
		}
		var ins, del *factSet
		for _, t := range d.Insert {
			added, stored, err := f.add(t, false)
			if err != nil {
				return err
			}
			if added {
				if ins == nil {
					ins = e.leaseSetSized(pred, f.arity)
				}
				if _, _, err := ins.add(stored, false); err != nil {
					return err
				}
			}
		}
		for _, t := range d.Delete {
			if !f.remove(t) {
				continue
			}
			if ins != nil && ins.remove(t) {
				continue // inserted and deleted in the same batch: no net change
			}
			if del == nil {
				del = e.leaseSetSized(pred, f.arity)
			}
			if _, _, err := del.add(t, true); err != nil {
				return err
			}
		}
		if ins != nil && ins.len() > 0 {
			insDone[pred] = ins
		}
		if del != nil && del.len() > 0 {
			delDone[pred] = del
		}
	}
	e.ensureFactSets()

	for s := 0; s < e.numStrata; s++ {
		if !e.stratumTouched(s, insDone, delDone) {
			continue
		}
		O, err := e.overdelete(s, insDone, delDone)
		if err != nil {
			return err
		}
		// Physically remove the over-deleted facts.
		for pred, o := range O {
			f := e.facts[pred]
			for _, t := range o.tuples {
				f.remove(t)
			}
		}

		seed := e.leaseMap()
		rederived := e.leaseMap()
		insNew := e.leaseMap()
		addTo := func(m map[string]*factSet, pred string, t relation.Tuple) error {
			set := m[pred]
			if set == nil {
				set = e.leaseSetSized(pred, len(t))
				m[pred] = set
			}
			_, _, err := set.add(t, false)
			return err
		}
		// Program facts are always derivable: re-add any that were
		// over-deleted.
		for _, ri := range e.rulesBy[s] {
			c := e.compiled[ri]
			if !c.rule.IsFact() {
				continue
			}
			h := c.rule.Head.Pred
			o := O[h]
			if o == nil {
				continue
			}
			t, err := FactTuple(c.rule)
			if err != nil {
				return err
			}
			if o.contains(t) && !e.facts[h].contains(t) {
				if _, _, err := e.facts[h].add(t, false); err != nil {
					return err
				}
				e.Stats.Rederived++
				if err := addTo(rederived, h, t); err != nil {
					return err
				}
				if err := addTo(seed, h, t); err != nil {
					return err
				}
			}
		}
		// Goal-directed rederivation: over-deleted facts that still have a
		// proof from the remaining facts are re-inserted and seed the insert
		// pass (facts whose proof depends on other re-derived facts are
		// picked up by the seeded semi-naive loop). Probes run against the
		// stable post-removal state with re-insertions deferred until every
		// probe is done.
		survivors, err := e.rederiveDeferred(O)
		if err != nil {
			return err
		}
		for _, tg := range survivors {
			// Clone on re-insertion: the survivor tuple is owned by the
			// round-leased overdelete set (arena-backed), while e.facts
			// outlives the round.
			if _, _, err := e.facts[tg.pred].add(tg.t, true); err != nil {
				return err
			}
			e.Stats.Rederived++
			if err := addTo(rederived, tg.pred, tg.t); err != nil {
				return err
			}
			if err := addTo(seed, tg.pred, tg.t); err != nil {
				return err
			}
		}
		// Enabler passes: facts newly derivable because a negated body
		// predicate lost tuples.
		var enablers []enablerPass
		for _, ri := range e.rulesBy[s] {
			c := e.compiled[ri]
			if c.hasAgg || c.rule.IsFact() {
				continue
			}
			for nocc, b := range c.negPreds {
				if d := delDone[b]; d != nil && d.len() > 0 {
					enablers = append(enablers, enablerPass{ri: ri, negOcc: nocc, negDelta: d})
				}
			}
		}
		// Net insertions from below (and the EDB) seed the positive deltas.
		for p, ins := range insDone {
			if ins.len() == 0 {
				continue
			}
			if cur := seed[p]; cur != nil {
				for _, t := range ins.tuples {
					if _, _, err := cur.add(t, false); err != nil {
						return err
					}
				}
			} else {
				seed[p] = ins
			}
		}
		onAdd := func(pred string, t relation.Tuple) {
			if o := O[pred]; o != nil && o.contains(t) {
				e.Stats.Rederived++
				_ = addTo(rederived, pred, t)
				return
			}
			_ = addTo(insNew, pred, t)
		}
		if err := e.runStratum(s, e.rulesBy[s], stratumOpts{seed: seed, enablers: enablers, onAdd: onAdd}); err != nil {
			return err
		}

		// Net change of this stratum feeds the strata above.
		for pred, o := range O {
			red := rederived[pred]
			net := e.leaseSetSized(pred, o.arity)
			for _, t := range o.tuples {
				if red != nil && red.contains(t) {
					continue
				}
				if _, _, err := net.add(t, false); err != nil {
					return err
				}
			}
			if net.len() > 0 {
				delDone[pred] = net
			}
		}
		for pred, ins := range insNew {
			if ins.len() > 0 {
				insDone[pred] = ins
			}
		}
	}
	e.warm = true
	return nil
}

// stratumTouched reports whether any rule of stratum s consumes a predicate
// with a pending net delta.
func (e *Engine) stratumTouched(s int, insDone, delDone map[string]*factSet) bool {
	nonEmpty := func(m map[string]*factSet, p string) bool {
		d := m[p]
		return d != nil && d.len() > 0
	}
	for _, ri := range e.rulesBy[s] {
		c := e.compiled[ri]
		for _, p := range c.atomPreds {
			if nonEmpty(insDone, p) || nonEmpty(delDone, p) {
				return true
			}
		}
		for _, p := range c.negPreds {
			if nonEmpty(insDone, p) || nonEmpty(delDone, p) {
				return true
			}
		}
	}
	return false
}

// overdelete computes the over-approximated set of stratum-s facts whose
// derivations may be invalidated by the pending net deltas. Nothing is
// physically deleted here, so the full fact sets of this stratum's heads
// still present the pre-deletion view throughout the fixpoint; deleted
// facts of lower strata and the EDB are seen through the per-occurrence
// delta-join passes (evalSpec.oldSets) instead of being restored into the
// fact sets. Derivations pairing a deleted fact with a negation-side
// insertion are caught by the delta pass through negOld (inserted facts are
// ignored at negated steps), and derivations whose positive atoms all
// survive are caught by the negation-driven passes — neither needs the old
// view.
func (e *Engine) overdelete(s int, insDone, delDone map[string]*factSet) (map[string]*factSet, error) {
	rules := make([]int, 0, len(e.rulesBy[s]))
	for _, ri := range e.rulesBy[s] {
		c := e.compiled[ri]
		if !c.hasAgg && !c.rule.IsFact() {
			rules = append(rules, ri)
		}
	}
	O := e.leaseMap()
	if len(rules) == 0 {
		return O, nil
	}

	cur := e.leaseMap()
	// merge files one candidate head tuple into O and the round's delta.
	// Emissions hand over the rule scratch's head buffer and are cloned on
	// genuine insertion.
	merge := func(round map[string]*factSet) func(head string, t relation.Tuple) error {
		return func(head string, t relation.Tuple) error {
			f := e.facts[head]
			if f == nil || !f.contains(t) {
				return nil // never derived (an artefact of the over-approximated view)
			}
			o := O[head]
			if o == nil {
				o = e.leaseSetSized(head, f.arity)
				O[head] = o
			}
			added, stored, err := o.add(t, true)
			if err != nil || !added {
				return err
			}
			e.Stats.Overdeleted++
			r := round[head]
			if r == nil {
				r = e.leaseSetSized(head, f.arity)
				round[head] = r
			}
			_, _, err = r.add(stored, false)
			return err
		}
	}
	// evalPass runs one overdelete pass's work items.
	evalPass := func(items []workItem, round map[string]*factSet) error {
		m := merge(round)
		for _, it := range items {
			c := e.compiled[it.ri]
			head := c.rule.Head.Pred
			err := e.evalRule(c, c.scratch, it.spec, func(t relation.Tuple) error {
				e.Stats.RuleFirings++
				return m(head, t)
			})
			if err != nil {
				return err
			}
		}
		return nil
	}

	// Seeds: deletions through positive atoms (per-occurrence delta-join
	// passes — later occurrences read the old view), insertions through
	// negation.
	base := evalSpec{negOcc: -1, negOld: insDone, oldSets: delDone}
	var items []workItem
	for _, ri := range rules {
		c := e.compiled[ri]
		items = c.deltaPasses(items, delDone, base)
		for nocc, pred := range c.negPreds {
			d := insDone[pred]
			if d == nil || d.len() == 0 {
				continue
			}
			items = append(items, workItem{ri: ri, spec: evalSpec{
				deltaOcc: -1, negOcc: nocc, negDelta: d, negOld: insDone,
			}})
		}
	}
	if err := evalPass(items, cur); err != nil {
		return nil, err
	}
	// Fixpoint over same-stratum consequences.
	for len(cur) > 0 {
		prev := cur
		cur = e.leaseMap()
		items = items[:0]
		for _, ri := range rules {
			items = e.compiled[ri].deltaPasses(items, prev, base)
		}
		if err := evalPass(items, cur); err != nil {
			return nil, err
		}
		e.Stats.Iterations++
	}
	return O, nil
}

// rederivTarget is one over-deleted fact probed for an alternative proof.
type rederivTarget struct {
	pred string
	t    relation.Tuple
}

// rederiveDeferred probes every physically removed over-deleted fact for an
// alternative derivation against the current (stable) fact sets and returns
// the survivors. No fact is inserted during the probes (facts whose only
// proofs pass through other survivors are re-derived by the caller's seeded
// semi-naive pass instead; the final fact sets are the same either way).
func (e *Engine) rederiveDeferred(O map[string]*factSet) ([]rederivTarget, error) {
	preds := make([]string, 0, len(O))
	for pred := range O {
		preds = append(preds, pred)
	}
	sort.Strings(preds)
	var targets []rederivTarget
	for _, pred := range preds {
		f := e.facts[pred]
		for _, t := range O[pred].tuples {
			if f.contains(t) {
				continue // re-added already (program fact)
			}
			targets = append(targets, rederivTarget{pred: pred, t: t})
		}
	}
	if len(targets) == 0 {
		return nil, nil
	}
	kept := targets[:0]
	for _, tg := range targets {
		ok, err := e.rederivable(tg.pred, tg.t)
		if err != nil {
			return nil, err
		}
		if ok {
			kept = append(kept, tg)
		}
	}
	return kept, nil
}

// rederivable reports whether an over-deleted (and physically removed) fact
// still has a derivation from the current facts, by evaluating each of its
// predicate's rules with the head variables pinned to the fact and stopping
// at the first proof.
func (e *Engine) rederivable(pred string, t relation.Tuple) (bool, error) {
	for _, ri := range e.rulesFor[pred] {
		c := e.compiled[ri]
		if c.hasAgg || c.rule.IsFact() {
			continue
		}
		sc := c.scratch
		if !setPins(c, sc, t) {
			continue
		}
		spec := evalSpec{deltaOcc: -1, negOcc: -1, pinned: true}
		err := e.evalRule(c, sc, spec, func(relation.Tuple) error { return errStopEval })
		clearPins(c, sc)
		if err == errStopEval {
			return true, nil
		}
		if err != nil {
			return false, err
		}
	}
	return false, nil
}

// setPins pins the rule's head variables to the target tuple, returning
// false (with pins cleared) when the tuple is incompatible with the head
// (constant mismatch, or one variable required to take two values).
func setPins(c *compiledRule, sc *ruleScratch, t relation.Tuple) bool {
	for i, h := range c.head {
		if h.isConst {
			if !h.c.Equal(t[i]) {
				clearPins(c, sc)
				return false
			}
			continue
		}
		if sc.pinned[h.varID] {
			if !sc.pinVals[h.varID].Equal(t[i]) {
				clearPins(c, sc)
				return false
			}
			continue
		}
		sc.pinned[h.varID] = true
		sc.pinVals[h.varID] = t[i]
	}
	return true
}

// clearPins resets the head-variable pins set by setPins.
func clearPins(c *compiledRule, sc *ruleScratch) {
	for _, h := range c.head {
		if !h.isConst {
			sc.pinned[h.varID] = false
		}
	}
}
