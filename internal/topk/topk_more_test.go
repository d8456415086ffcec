package topk

import (
	"context"
	"errors"
	"math"
	"strconv"
	"testing"

	"trinit/internal/query"
	"trinit/internal/rdf"
	"trinit/internal/relax"
	"trinit/internal/store"
)

func TestMaxOverDerivationsPicksHighestWeight(t *testing.T) {
	st := store.New(nil, nil)
	st.AddFact(rdf.Resource("A"), rdf.Token("worked at"), rdf.Resource("X"), rdf.SourceXKG, 1, rdf.NoProv)
	st.Freeze()
	// Two rules reach the same XKG fact with different weights; the
	// answer must carry the higher one.
	rules := []*relax.Rule{
		relax.MustParseRule("low", "?x affiliation ?y => ?x 'worked at' ?y", 0.3, "manual"),
		relax.MustParseRule("high", "?x affiliation ?y => ?x 'worked at' ?y", 0.9, "manual"),
	}
	q := query.MustParse("A affiliation ?y")
	q.Projection = q.ProjectedVars()
	rewrites := relax.NewExpander(rules).Expand(q)
	ans, _ := New(st, Options{K: 5}).Evaluate(q, rewrites)
	if len(ans) != 1 {
		t.Fatalf("answers = %d", len(ans))
	}
	if math.Abs(ans[0].Score-0.9) > 1e-12 {
		t.Fatalf("score = %v, want max-over-derivations 0.9", ans[0].Score)
	}
	if ans[0].Derivation.Rewrite.Applied[0].ID != "high" {
		t.Fatalf("winning derivation = %v", ans[0].Derivation.Rewrite.Applied[0].ID)
	}
}

func TestVariablePredicateJoin(t *testing.T) {
	st := store.New(nil, nil)
	st.AddKG(rdf.Resource("A"), rdf.Resource("p"), rdf.Resource("B"))
	st.AddKG(rdf.Resource("A"), rdf.Resource("q"), rdf.Resource("B"))
	st.AddKG(rdf.Resource("A"), rdf.Resource("p"), rdf.Resource("C"))
	st.Freeze()
	// ?r ranges over predicates connecting A and B.
	q := query.MustParse("SELECT ?r WHERE { A ?r B }")
	rewrites := relax.NewExpander(nil).Expand(q)
	ans, _ := New(st, Options{K: 10}).Evaluate(q, rewrites)
	if len(ans) != 2 {
		t.Fatalf("answers = %d, want p and q", len(ans))
	}
}

func TestRunConfigKOverrideKeepsCache(t *testing.T) {
	st := demoXKG()
	ev := New(st, Options{K: 1})
	q := query.MustParse("?x ?p ?y")
	q.Projection = q.ProjectedVars()
	rewrites := relax.NewExpander(nil).Expand(q)
	first, m1 := ev.Evaluate(q, rewrites)
	if len(first) != 1 {
		t.Fatalf("k=1 answers = %d", len(first))
	}
	if m1.PatternsMatched == 0 {
		t.Fatal("cold evaluation did not match patterns")
	}
	second, m2, err := ev.Run(context.Background(), q, rewrites, RunConfig{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(second) != 5 {
		t.Fatalf("k=5 answers = %d", len(second))
	}
	if m2.PatternsMatched != 0 {
		t.Fatalf("warm evaluation rebuilt %d pattern lists", m2.PatternsMatched)
	}
	if m2.IndexScanned != 0 {
		t.Fatalf("warm evaluation scanned %d postings", m2.IndexScanned)
	}
	// The override scopes to the call: the executor's default K is
	// untouched for the next borrower.
	third, _ := ev.Evaluate(q, rewrites)
	if len(third) != 1 {
		t.Fatalf("after K override, default evaluation returned %d answers, want 1", len(third))
	}
}

func TestRunNoTraceSkipsTraceEntirely(t *testing.T) {
	st := demoXKG()
	ev := New(st, Options{K: 5})
	q := query.MustParse("?x ?p ?y")
	q.Projection = q.ProjectedVars()
	rewrites := relax.NewExpander(nil).Expand(q)
	traced, _, err := ev.Run(context.Background(), q, rewrites, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if ev.TraceLen() == 0 {
		t.Fatal("default run collected no trace")
	}
	bare, _, err := ev.Run(context.Background(), q, rewrites, RunConfig{NoTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if n := ev.TraceLen(); n != 0 {
		t.Fatalf("NoTrace run left %d trace entries", n)
	}
	if len(bare) != len(traced) {
		t.Fatalf("NoTrace changed the answers: %d vs %d", len(bare), len(traced))
	}
	for i := range bare {
		if bare[i].Score != traced[i].Score {
			t.Fatalf("answer %d: score %v vs %v", i, bare[i].Score, traced[i].Score)
		}
	}
}

func TestRunCanceledContext(t *testing.T) {
	st := demoXKG()
	ev := New(st, Options{K: 5})
	q := query.MustParse("?x ?p ?y")
	q.Projection = q.ProjectedVars()
	rewrites := relax.NewExpander(nil).Expand(q)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	answers, _, err := ev.Run(ctx, q, rewrites, RunConfig{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(answers) != 0 {
		t.Fatalf("pre-cancelled run produced %d answers", len(answers))
	}
	for _, tr := range ev.LastTrace() {
		if tr.Status != "canceled" {
			t.Fatalf("trace status = %q, want canceled", tr.Status)
		}
	}
	// The same executor still works for the next caller.
	answers, _, err = ev.Run(context.Background(), q, rewrites, RunConfig{})
	if err != nil || len(answers) == 0 {
		t.Fatalf("post-cancel reuse: answers=%d err=%v", len(answers), err)
	}
}

func TestRunEmitHookStreamsTopKAdmissions(t *testing.T) {
	st := demoXKG()
	ev := New(st, Options{K: 3})
	q := query.MustParse("?x ?p ?y")
	q.Projection = q.ProjectedVars()
	rewrites := relax.NewExpander(nil).Expand(q)
	var emitted []Answer
	answers, _, err := ev.Run(context.Background(), q, rewrites, RunConfig{
		Emit: func(a Answer) { emitted = append(emitted, a) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != 3 {
		t.Fatalf("answers = %d", len(answers))
	}
	if len(emitted) < len(answers) {
		t.Fatalf("emitted %d events for %d final answers", len(emitted), len(answers))
	}
	// Every final answer scoring strictly above the k-th score was
	// announced provisionally at some point (answers tying the k-th
	// score may enter the final ranking through the key tie-break
	// without a heap admission — documented in RunConfig.Emit).
	seen := make(map[string]bool, len(emitted))
	for _, a := range emitted {
		seen[string(appendAnswerKey(nil, a.Bindings, q.Projection))] = true
	}
	kth := answers[len(answers)-1].Score
	for _, a := range answers {
		if a.Score > kth && !seen[string(appendAnswerKey(nil, a.Bindings, q.Projection))] {
			t.Fatalf("final answer %v (score %v > kth %v) never emitted", a.Bindings, a.Score, kth)
		}
	}
}

func TestTraceRecordsRewriteLifecycle(t *testing.T) {
	st := demoXKG()
	ev := New(st, Options{K: 5})
	q := query.MustParse("AlbertEinstein hasAdvisor ?x")
	q.Projection = q.ProjectedVars()
	rewrites := relax.NewExpander(figure4()).Expand(q)
	ans, _ := ev.Evaluate(q, rewrites)
	if len(ans) != 1 {
		t.Fatalf("answers = %d", len(ans))
	}
	trace := ev.LastTrace()
	if len(trace) != len(rewrites) {
		t.Fatalf("trace entries = %d, rewrites = %d", len(trace), len(rewrites))
	}
	// Original query: no hasAdvisor facts exist.
	if trace[0].Status != "no matches" {
		t.Errorf("original status = %q", trace[0].Status)
	}
	// The inversion rewrite produced the answer.
	found := false
	for _, tr := range trace {
		if tr.Status == "evaluated" && tr.Answers == 1 {
			found = true
			if len(tr.Rules) != 1 || tr.Rules[0] != "r2" {
				t.Errorf("winning trace rules = %v", tr.Rules)
			}
		}
	}
	if !found {
		t.Fatalf("no trace entry with an answer: %+v", trace)
	}
	// LastTrace must return a copy.
	trace[0].Status = "mutated"
	if ev.LastTrace()[0].Status == "mutated" {
		t.Fatal("LastTrace returned shared state")
	}
}

func TestTraceMarksSkippedRewrites(t *testing.T) {
	st := demoXKG()
	ev := New(st, Options{K: 1, Mode: Incremental})
	rules := []*relax.Rule{
		relax.MustParseRule("weak", "?x bornIn ?y => ?x 'lectured at' ?y", 0.1, "manual"),
	}
	q := query.MustParse("AlbertEinstein bornIn ?y LIMIT 1")
	q.Projection = q.ProjectedVars()
	rewrites := relax.NewExpander(rules).Expand(q)
	ev.Evaluate(q, rewrites)
	skipped := 0
	for _, tr := range ev.LastTrace() {
		if tr.Status == "skipped (weight bound)" {
			skipped++
		}
	}
	if skipped == 0 {
		t.Fatal("no rewrites marked skipped")
	}
}

func TestMissingProjectionTraced(t *testing.T) {
	st := demoXKG()
	// Rule drops ?y entirely; the rewrite cannot bind the projection.
	rules := []*relax.Rule{
		relax.MustParseRule("drop", "?x affiliation ?y ; ?x bornIn ?z => ?x bornIn ?z", 0.9, "manual"),
	}
	q := query.MustParse("SELECT ?y WHERE { AlbertEinstein affiliation ?y . AlbertEinstein bornIn ?z }")
	rewrites := relax.NewExpander(rules).Expand(q)
	// relax.Apply already rejects projection-losing rewrites when the
	// projection is explicit, so all rewrites here remain valid.
	ev := New(st, Options{K: 5})
	ans, _ := ev.Evaluate(q, rewrites)
	if len(ans) == 0 {
		t.Fatal("no answers")
	}
	for _, tr := range ev.LastTrace() {
		if tr.Status == "missing projection" {
			t.Fatalf("projection-losing rewrite reached the evaluator: %+v", tr)
		}
	}
}

func TestUniformConfAblation(t *testing.T) {
	st := store.New(nil, nil)
	st.AddFact(rdf.Resource("A"), rdf.Token("worked at"), rdf.Resource("X"), rdf.SourceXKG, 0.9, rdf.NoProv)
	st.AddFact(rdf.Resource("B"), rdf.Token("worked at"), rdf.Resource("X"), rdf.SourceXKG, 0.3, rdf.NoProv)
	st.Freeze()
	q := query.MustParse("?x 'worked at' X")
	q.Projection = q.ProjectedVars()
	rewrites := relax.NewExpander(nil).Expand(q)

	full, _ := New(st, Options{K: 5}).Evaluate(q, rewrites)
	if len(full) != 2 || full[0].Score == full[1].Score {
		t.Fatalf("full scoring should separate by confidence: %+v", full)
	}
	uni, _ := New(st, Options{K: 5, UniformConf: true}).Evaluate(q, rewrites)
	if len(uni) != 2 || uni[0].Score != uni[1].Score {
		t.Fatalf("uniform-conf scoring should tie: %+v", uni)
	}
}

func TestNoNormalizeAblation(t *testing.T) {
	st := demoXKG()
	q := query.MustParse("?x bornIn ?y")
	q.Projection = q.ProjectedVars()
	rewrites := relax.NewExpander(nil).Expand(q)
	norm, _ := New(st, Options{K: 5}).Evaluate(q, rewrites)
	raw, _ := New(st, Options{K: 5, NoNormalize: true}).Evaluate(q, rewrites)
	if len(norm) != 1 || len(raw) != 1 {
		t.Fatalf("answers: %d, %d", len(norm), len(raw))
	}
	// One bornIn fact: normalised prob 1; unnormalised raw conf 1. Equal
	// here — extend with a second fact to see the difference.
	st2 := demoXKG2()
	norm2, _ := New(st2, Options{K: 5}).Evaluate(q, rewrites)
	raw2, _ := New(st2, Options{K: 5, NoNormalize: true}).Evaluate(q, rewrites)
	if norm2[0].Score >= raw2[0].Score {
		t.Fatalf("normalised score %v should be below raw %v with 2 matches", norm2[0].Score, raw2[0].Score)
	}
}

// demoXKG2 adds a second bornIn fact so normalisation halves probabilities.
func demoXKG2() *store.Store {
	st := store.New(nil, nil)
	st.AddKG(rdf.Resource("AlbertEinstein"), rdf.Resource("bornIn"), rdf.Resource("Ulm"))
	st.AddKG(rdf.Resource("MaxBorn"), rdf.Resource("bornIn"), rdf.Resource("Breslau"))
	st.Freeze()
	return st
}

// TestTypedCompositionAnswersUserA runs the automatically mined Figure 4
// rule 1 (typed composition) end to end on user A's query.
func TestTypedCompositionAnswersUserA(t *testing.T) {
	st := store.New(nil, nil)
	add := func(s, p, o string) { st.AddKG(rdf.Resource(s), rdf.Resource(p), rdf.Resource(o)) }
	add("AlbertEinstein", "bornIn", "Ulm")
	add("MaxBorn", "bornIn", "Breslau")
	add("Ulm", "locatedIn", "Germany")
	add("Breslau", "locatedIn", "Germany")
	add("Ulm", "type", "city")
	add("Breslau", "type", "city")
	add("Germany", "type", "country")
	st.Freeze()
	rules := relax.MineTypedCompositions(st, relax.DefaultTypedCompositionOptions())
	if len(rules) == 0 {
		t.Fatal("no typed composition rules mined")
	}
	q := query.MustParse("SELECT ?x WHERE { ?x bornIn Germany . Germany type country }")
	rewrites := relax.NewExpander(rules).Expand(q)
	ans, _ := New(st, Options{K: 5}).Evaluate(q, rewrites)
	if len(ans) != 2 {
		t.Fatalf("answers = %d, want Einstein and Born", len(ans))
	}
}

func TestFilterConstrainsAnswers(t *testing.T) {
	st := store.New(nil, nil)
	st.AddFact(rdf.Resource("AlbertEinstein"), rdf.Resource("bornOn"), rdf.Literal("1879-03-14"), rdf.SourceKG, 1, rdf.NoProv)
	st.AddFact(rdf.Resource("RichardFeynman"), rdf.Resource("bornOn"), rdf.Literal("1918-05-11"), rdf.SourceKG, 1, rdf.NoProv)
	st.Freeze()
	q := query.MustParse("SELECT ?x WHERE { ?x bornOn ?d . FILTER(?d < '1900-01-01') }")
	rewrites := relax.NewExpander(nil).Expand(q)
	ans, _ := New(st, Options{K: 10}).Evaluate(q, rewrites)
	if len(ans) != 1 {
		t.Fatalf("answers = %d, want 1", len(ans))
	}
	if st.Dict().Term(ans[0].Bindings["x"]).Text != "AlbertEinstein" {
		t.Fatalf("answer = %v", ans[0])
	}
}

func TestFilterSurvivesRelaxation(t *testing.T) {
	st := store.New(nil, nil)
	st.AddFact(rdf.Resource("A"), rdf.Resource("bornOn"), rdf.Literal("1850-01-01"), rdf.SourceKG, 1, rdf.NoProv)
	st.AddFact(rdf.Resource("B"), rdf.Resource("bornOn"), rdf.Literal("1950-01-01"), rdf.SourceKG, 1, rdf.NoProv)
	st.AddKG(rdf.Resource("A"), rdf.Resource("bornIn"), rdf.Resource("Ulm"))
	st.AddKG(rdf.Resource("B"), rdf.Resource("bornIn"), rdf.Resource("Ulm"))
	st.AddKG(rdf.Resource("Ulm"), rdf.Resource("locatedIn"), rdf.Resource("Germany"))
	st.Freeze()
	rules := []*relax.Rule{
		relax.MustParseRule("comp", "?x bornIn ?y => ?x bornIn ?z ; ?z locatedIn ?y", 1.0, "manual"),
	}
	// Relaxed query must still respect the date filter.
	q := query.MustParse("SELECT ?x WHERE { ?x bornIn Germany . ?x bornOn ?d . FILTER(?d < '1900') }")
	rewrites := relax.NewExpander(rules).Expand(q)
	ans, _ := New(st, Options{K: 10}).Evaluate(q, rewrites)
	if len(ans) != 1 {
		t.Fatalf("answers = %d, want only pre-1900 A", len(ans))
	}
	if st.Dict().Term(ans[0].Bindings["x"]).Text != "A" {
		t.Fatalf("answer = %v", ans[0])
	}
}

func TestFilterVarVsVar(t *testing.T) {
	st := store.New(nil, nil)
	st.AddKG(rdf.Resource("A"), rdf.Resource("knows"), rdf.Resource("B"))
	st.AddKG(rdf.Resource("A"), rdf.Resource("knows"), rdf.Resource("A"))
	st.Freeze()
	q := query.MustParse("?x knows ?y . FILTER(?x != ?y)")
	rewrites := relax.NewExpander(nil).Expand(q)
	ans, _ := New(st, Options{K: 10}).Evaluate(q, rewrites)
	if len(ans) != 1 {
		t.Fatalf("answers = %d, want self-loop filtered", len(ans))
	}
}

// appendAnswerKey appends the canonical ranking key of a binding over the
// projected variables to buf: the key recordBinding feeds the top-k state.
func appendAnswerKey(buf []byte, b map[string]rdf.TermID, proj []string) []byte {
	for _, v := range proj {
		buf = append(buf, v...)
		buf = append(buf, '=')
		buf = strconv.AppendUint(buf, uint64(b[v]), 10)
		buf = append(buf, ';')
	}
	return buf
}
