package datalog

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/relation"
)

// ss2plProgram is the scheduling-protocol shape the DRed properties run on:
// negation across three strata.
const ss2plProgram = `
	finished(TA) :- history(TA, "c", _).
	lock(OBJ, TA) :- history(TA, "w", OBJ), not finished(TA).
	blocked(TA) :- request(TA, _, OBJ), lock(OBJ, TA2), TA2 != TA.
	qualified(TA, OP, OBJ) :- request(TA, OP, OBJ), not blocked(TA).
	`

// predsOf lists every predicate a program mentions.
func predsOf(prog *Program) []string {
	seen := map[string]bool{}
	var out []string
	add := func(p string) {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	for _, r := range prog.Rules {
		add(r.Head.Pred)
		for _, l := range r.Body {
			if l.Kind == LitAtom {
				add(l.Atom.Pred)
			}
		}
	}
	return out
}

// randEDBTuple builds a random tuple for pred matching the program's arity,
// over a small value domain so joins, negation hits and deletions of present
// tuples all occur.
func randEDBTuple(rng *rand.Rand, prog *Program, pred string) relation.Tuple {
	ar := prog.Arities[pred]
	t := make(relation.Tuple, ar)
	for i := range t {
		if rng.Intn(4) == 0 {
			t[i] = relation.String([]string{"c", "w", "r"}[rng.Intn(3)])
		} else {
			t[i] = relation.Int(int64(rng.Intn(5)))
		}
	}
	return t
}

// TestDRedForcedMatchesColdOracle pins the cost model to DRed so every
// non-monotone batch takes the overdelete/rederive path, and checks fact-set
// equality against a cold oracle over random delete-heavy batches on the
// SS2PL-shaped program (negation across three strata).
func TestDRedForcedMatchesColdOracle(t *testing.T) {
	prog := MustParse(ss2plProgram)
	preds := predsOf(prog)
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e, err := NewEngine(prog)
		if err != nil {
			t.Fatal(err)
		}
		e.costModel = costForceDRed // always DRed (unless nothing is standing)
		edb := map[string][]relation.Tuple{"request": nil, "history": nil}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		sawDRed := false
		for step := 0; step < 20; step++ {
			changed := make(map[string]EDBDelta)
			for pred := range edb {
				var d EDBDelta
				for _, row := range edb[pred] {
					if rng.Intn(3) == 0 {
						d.Delete = append(d.Delete, row)
					}
				}
				for k := 0; k < rng.Intn(4); k++ {
					d.Insert = append(d.Insert, randEDBTuple(rng, prog, pred))
				}
				if len(d.Insert) > 0 || len(d.Delete) > 0 {
					changed[pred] = d
				}
			}
			if err := e.RunIncremental(changed); err != nil {
				t.Fatal(err)
			}
			if e.Stats.Strategy == StrategyDRed {
				sawDRed = true
			}
			for pred, d := range changed {
				edb[pred] = applyDeltaMirror(edb[pred], d)
			}
			checkAgainstOracle(t, e, prog, edb, preds, fmt.Sprintf("seed %d step %d", seed, step))
			checkFactSetConsistency(t, e)
		}
		if !sawDRed {
			t.Fatalf("seed %d: DRed path never taken", seed)
		}
	}
}

// TestDRedStatsAndStrategySelection: a small-churn delete against large
// standing sets takes DRed and reports overdeletions; replacing most of the
// EDB in one batch takes the recompute fallback.
func TestDRedStatsAndStrategySelection(t *testing.T) {
	prog := MustParse(ss2plProgram)
	e, err := NewEngine(prog)
	if err != nil {
		t.Fatal(err)
	}
	var hist []relation.Tuple
	for i := int64(0); i < 200; i++ {
		hist = append(hist, relation.Tuple{relation.Int(i), relation.String("w"), relation.Int(i % 50)})
	}
	if err := e.SetEDB("history", hist); err != nil {
		t.Fatal(err)
	}
	if err := e.SetEDB("request", []relation.Tuple{
		{relation.Int(500), relation.String("r"), relation.Int(3)},
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Trickle delete: one history row out of 200.
	if err := e.RunIncremental(map[string]EDBDelta{
		"history": {Delete: hist[:1]},
	}); err != nil {
		t.Fatal(err)
	}
	if e.Stats.Strategy != StrategyDRed {
		t.Fatalf("trickle delete took %s, want %s", e.Stats.Strategy, StrategyDRed)
	}
	if e.Stats.Overdeleted == 0 {
		t.Fatal("DRed reported no overdeletions for a lock-holding history row")
	}
	// Bulk replacement: delete half the history at once.
	if err := e.RunIncremental(map[string]EDBDelta{
		"history": {Delete: hist[1:150]},
	}); err != nil {
		t.Fatal(err)
	}
	if e.Stats.Strategy != StrategyRecompute {
		t.Fatalf("bulk delete took %s, want %s", e.Stats.Strategy, StrategyRecompute)
	}
}
