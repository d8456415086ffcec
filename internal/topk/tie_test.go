package topk

import (
	"context"
	"testing"

	"trinit/internal/query"
	"trinit/internal/rdf"
	"trinit/internal/relax"
	"trinit/internal/store"
)

// tieFixture builds two rewrites of weight w whose answers tie exactly at
// score w·(⅓·⅓). Rewrite 0 reaches X1 over r0/s0, rewrite 1 reaches X3
// over r/s, and X3 is interned first, so its ranking key sorts first and
// it must win the tie at k = 1. Every match probability is ⅓: each
// pattern matches three facts of confidence 1.
func tieFixture(w float64) (*store.Store, *query.Query, []relax.Rewrite) {
	st := store.New(nil, nil)
	add := func(s, p, o string) { st.AddKG(rdf.Resource(s), rdf.Resource(p), rdf.Resource(o)) }
	// X3 before X1, both among the first (single-digit) term IDs: X3's
	// ranking key "x=<id>;" sorts first.
	add("X3", "r", "Y")
	add("X1", "r0", "Y0")
	add("D1", "r", "Dead1")
	add("D2", "r", "Dead2")
	add("Y", "s", "Z1")
	add("Y", "s", "Z2")
	add("Y", "s", "Z3")
	add("E1", "r0", "Dead3")
	add("E2", "r0", "Dead4")
	add("Y0", "s0", "Z1")
	add("Y0", "s0", "Z2")
	add("Y0", "s0", "Z3")
	st.Freeze()

	q := query.MustParse("SELECT ?x WHERE { ?x r ?y . ?y s ?z }")
	q.Projection = q.ProjectedVars()
	first := query.MustParse("SELECT ?x WHERE { ?x r0 ?y . ?y s0 ?z }")
	first.Projection = first.ProjectedVars()
	return st, q, []relax.Rewrite{{Query: first, Weight: w}, {Query: q, Weight: w}}
}

// TestPruneKeepsKthScoreTies: a branch whose completion exactly ties the
// k-th score must run, so the key tie-break sees the same tied set as
// exhaustive evaluation. With w = 0.3 and probabilities ⅓ the pruning
// bound (w·⅓)·⅓ rounds one ulp below the score w·(⅓·⅓) it bounds; a
// prune that compares the two directly drops X3 once X1 has set the
// threshold, in every kernel.
func TestPruneKeepsKthScoreTies(t *testing.T) {
	w, third := 0.3, 1.0/3
	if !((w*third)*third < w*(third*third)) {
		t.Fatal("fixture premise: the bound no longer rounds below the score")
	}
	st, q, rewrites := tieFixture(w)
	x3, _ := st.Dict().Lookup(rdf.Resource("X3"))
	for _, c := range []struct {
		name string
		opts Options
	}{
		{"block", Options{}},
		{"tuple", Options{NoBlockJoin: true}},
		{"scan", Options{NoHashJoin: true}},
		{"no-plan", Options{NoPlan: true, NoBlockJoin: true}},
	} {
		c.opts.K = 1
		for _, p := range []int{1, 2} {
			oracle, _, err := New(st, c.opts).Run(context.Background(), q, rewrites, RunConfig{Mode: Exhaustive, ModeSet: true})
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := New(st, c.opts).Run(context.Background(), q, rewrites, RunConfig{Parallelism: p})
			if err != nil {
				t.Fatal(err)
			}
			if len(oracle) != 1 || oracle[0].Bindings["x"] != x3 {
				t.Fatalf("%s P=%d: exhaustive top-1 = %v, want X3", c.name, p, oracle)
			}
			if len(got) != 1 || got[0].Bindings["x"] != x3 || got[0].Score != oracle[0].Score {
				t.Errorf("%s P=%d: incremental top-1 = %v, want X3 at %v", c.name, p, got, oracle[0].Score)
			}
		}
	}
}
