package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"

	"runtime"
	"sort"
	"time"

	"trinit"
	"trinit/internal/dataset"
	"trinit/internal/experiments"
	"trinit/internal/ned"
	"trinit/internal/rdf"
	"trinit/internal/store"
	"trinit/internal/xkg"
)

// setupTimes splits one set-up into the steps the traced run reports, on
// the thread CPU clock; wall is the whole set-up on the wall clock.
type setupTimes struct {
	generate, extend, load, freeze, mine, persist time.Duration
	wall                                          time.Duration
}

func (t setupTimes) total() time.Duration {
	return t.generate + t.extend + t.load + t.freeze + t.mine + t.persist
}

// env is one set-up workload: the engine under test, the facts it was
// built from, the held-out facts the writer ingests, and the reader's
// queries.
type env struct {
	world   *dataset.World
	engine  *trinit.Engine
	base    []trinit.Fact
	held    []trinit.Fact
	queries []string
	dataDir string // non-empty once the engine is durable
	times   setupTimes
}

// ranked is one answer of a ranking: its bindings and score. Scores are
// compared exactly, with no tolerance.
type ranked struct {
	Bindings map[string]string
	Score    float64
}

// close detaches a durable engine and removes its data directory. A
// durability failure has already failed the operation that hit it.
func (v *env) close() {
	if v.dataDir != "" {
		_ = v.engine.Close()
		os.RemoveAll(v.dataDir)
		v.dataDir = ""
	}
}

// worldFacts generates the world and returns every fact of its extended
// knowledge graph — curated KG facts first, then the XKG token triples the
// Open-IE pipeline extracts from its corpus (the steps ExtendFromDocuments
// runs: openie, ned and xkg).
func worldFacts(cfg dataset.Config, t *setupTimes) (*dataset.World, []trinit.Fact) {
	sw := startWatch()
	w := dataset.Generate(cfg)
	t.generate, _ = sw.stop()

	sw = startWatch()
	st := store.New(nil, nil)
	w.PopulateKG(st)
	xkg.Build(st, ned.NewLinker(st), w.Docs(), xkg.DefaultOptions())
	t.extend, _ = sw.stop()

	dict, prov := st.Dict(), st.Prov()
	facts := make([]trinit.Fact, st.Len())
	for i := range facts {
		tr := st.Triple(store.ID(i))
		s, p, o := dict.Term(tr.S), dict.Term(tr.P), dict.Term(tr.O)
		f := trinit.Fact{Subject: s.Text, Predicate: p.Text, Object: o.Text}
		if tr.Source == rdf.SourceXKG {
			pv := prov.Get(tr.Prov)
			f.XKG, f.Confidence, f.Doc, f.Sentence = true, tr.Conf, pv.Doc, pv.Sentence
		} else {
			f.LiteralObject = o.Kind == rdf.KindLiteral
		}
		facts[i] = f
	}
	return w, facts
}

// holdOut splits facts into a base (original order) and a held-out slice
// of n facts chosen by pick and ordered by order.
func holdOut(facts []trinit.Fact, n int, pick, order *rand.Rand) (base, held []trinit.Fact) {
	if n > len(facts)/4 {
		n = len(facts) / 4
	}
	perm := pick.Perm(len(facts))
	out := make(map[int]bool, n)
	for _, i := range perm[:n] {
		out[i] = true
	}
	for i, f := range facts {
		if out[i] {
			held = append(held, f)
		} else {
			base = append(base, f)
		}
	}
	order.Shuffle(len(held), func(i, j int) { held[i], held[j] = held[j], held[i] })
	return base, held
}

// probeFacts returns n facts for the write probe of a read-only workload.
// They come from a second world (the 1x config under the next generator
// seed), minus every subject-predicate-object the reader's world already
// holds, so the reader runs on its whole world and the probe still ingests
// facts the engine does not have. Which facts is fixed by the generator
// seed; --seed orders them.
func probeFacts(c *config, base []trinit.Fact, n int) []trinit.Fact {
	cfg := c.world
	cfg.Seed++
	var t setupTimes
	_, facts := worldFacts(cfg, &t)
	type spo struct{ s, p, o string }
	have := make(map[spo]bool, len(base))
	for _, f := range base {
		have[spo{f.Subject, f.Predicate, f.Object}] = true
	}
	var fresh []trinit.Fact
	for _, f := range facts {
		if !have[spo{f.Subject, f.Predicate, f.Object}] {
			fresh = append(fresh, f)
		}
	}
	_, held := holdOut(fresh, n, rand.New(rand.NewSource(cfg.Seed)), rand.New(rand.NewSource(c.seed)))
	return held
}

// addFact routes a fact through the pre-Freeze mutation API.
func addFact(e *trinit.Engine, f trinit.Fact) error {
	switch {
	case f.XKG:
		return e.AddTokenTriple(f.Subject, f.Predicate, f.Object, f.Confidence, f.Doc, f.Sentence)
	case f.LiteralObject:
		return e.AddKGLiteral(f.Subject, f.Predicate, f.Object)
	default:
		return e.AddKGFact(f.Subject, f.Predicate, f.Object)
	}
}

// loadFrozen builds an engine holding facts, frozen, with no rules.
func loadFrozen(facts []trinit.Fact, t *setupTimes) (*trinit.Engine, error) {
	sw := startWatch()
	e := trinit.New(nil)
	for i, f := range facts {
		if err := addFact(e, f); err != nil {
			return nil, fmt.Errorf("fact %d: %w", i, err)
		}
	}
	t.load, _ = sw.stop()
	sw = startWatch()
	e.Freeze()
	t.freeze, _ = sw.stop()
	return e, nil
}

// setupOnce builds a workload's engine from the seeded world: generation,
// XKG extraction, loading the facts (all but the held-out ones on the
// mixed workload), freeze and rule mining (the manual advisor-inversion
// rule plus the default mined rules, as NewSyntheticEngine does), then
// Persist and Open for the mixed workload.
func setupOnce(c *config, w workload) (*env, error) {
	v := &env{}
	whole := startWatch()
	var facts []trinit.Fact
	// The generator's own seed stays fixed: the heaviest of the 70 queries
	// sets query_p99_ms, and which query that is, and how heavy, changes
	// with the generated world (p99 varied by almost half of its median
	// between worlds). --seed instead orders the queries and the ingested
	// facts.
	v.world, facts = worldFacts(c.world.Scaled(w.scale), &v.times)
	rng := rand.New(rand.NewSource(c.seed))
	v.base = facts
	if w.mixed {
		// The held-out facts are picked with the generator's seed too:
		// which facts are held out changed query_p99_ms on ingest_mixed
		// by 0.3 of its median across seeds, 0.1 within one.
		v.base, v.held = holdOut(facts, w.heldOut(c), rand.New(rand.NewSource(c.world.Seed)), rng)
	}

	e, err := loadFrozen(v.base, &v.times)
	if err != nil {
		return nil, err
	}
	sw := startWatch()
	if err := e.AddRule("advisor-inv", "?x hasAdvisor ?y => ?y hasStudent ?x", 1.0); err != nil {
		return nil, err
	}
	if _, err := e.MineRules(trinit.DefaultMiningConfig()); err != nil {
		return nil, err
	}
	v.times.mine, _ = sw.stop()
	v.engine = e

	if w.mixed {
		sw = startWatch()
		dir, err := os.MkdirTemp(c.scratch, "data-")
		if err != nil {
			return nil, err
		}
		if err := e.Persist(dir); err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		if err := e.Close(); err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		opened, _, err := trinit.Open(dir, nil)
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		v.engine, v.dataDir = opened, dir
		v.times.persist, _ = sw.stop()
	}
	_, v.times.wall = whole.stop()
	v.queries = w.queries(v.world, rng)
	return v, nil
}

// setup runs setupOnce c.setups times and keeps the last environment; it
// returns the median set-up CPU and wall times and the live heap after the
// last one. A read-only workload also gets its write probe's facts, outside
// the timed set-up.
func setup(c *config, w workload) (v *env, cpuS, wallS, heapMB float64, err error) {
	var secs, walls []float64
	for i := 0; i < c.setups; i++ {
		if v != nil {
			v.close()
			v = nil
			runtime.GC()
		}
		if v, err = setupOnce(c, w); err != nil {
			return nil, 0, 0, 0, err
		}
		secs = append(secs, v.times.total().Seconds())
		walls = append(walls, v.times.wall.Seconds())
	}
	if !w.mixed {
		v.held = probeFacts(c, v.base, w.heldOut(c))
	}
	// The first collection queues the cleanups of the discarded engines'
	// store versions; collect again once they have run.
	runtime.GC()
	time.Sleep(10 * time.Millisecond)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return v, median(secs), median(walls), float64(ms.HeapAlloc) / (1 << 20), nil
}

// hot70Queries is the paper's 70-query entity-relationship mix in the
// seed's order.
func hot70Queries(w *dataset.World, rng *rand.Rand) []string {
	var qs []string
	for _, q := range w.Workload(70) {
		qs = append(qs, q.Text)
	}
	rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	return qs
}

// longtailQueries is every distinct query the workload generator yields
// for a large n, plus the token-pattern workload, in the seed's order.
func longtailQueries(w *dataset.World, rng *rand.Rand) []string {
	seen := make(map[string]bool)
	var qs []string
	add := func(q string) {
		if !seen[q] {
			seen[q] = true
			qs = append(qs, q)
		}
	}
	for _, q := range w.Workload(70 * 100) {
		add(q.Text)
	}
	for _, q := range experiments.TokenPatternWorkload(w, 0) {
		add(q.Text)
	}
	sort.Strings(qs)
	rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	return qs
}

// rankingOf converts engine answers into a comparable ranking.
func rankingOf(res *trinit.Result) []ranked {
	out := make([]ranked, len(res.Answers))
	for i, a := range res.Answers {
		out[i] = ranked{Bindings: a.Bindings, Score: a.Score}
	}
	return out
}

// references records each query's ranking in exhaustive mode, the
// correctness baseline timed responses are checked against.
func references(e *trinit.Engine, queries []string) (map[string][]ranked, error) {
	refs := make(map[string][]ranked, len(queries))
	for _, q := range queries {
		res, err := e.QueryContext(context.Background(), q,
			trinit.WithMode(trinit.ModeExhaustive), trinit.WithoutTrace(), trinit.WithoutExplanations())
		if err != nil {
			return nil, fmt.Errorf("reference %q: %w", q, err)
		}
		refs[q] = rankingOf(res)
	}
	return refs, nil
}

// sameRanking reports whether got equals want: same answers in the same
// order, same bindings, exactly equal scores.
func sameRanking(got, want []ranked) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].Score != want[i].Score || len(got[i].Bindings) != len(want[i].Bindings) {
			return false
		}
		for k, v := range want[i].Bindings {
			if got[i].Bindings[k] != v {
				return false
			}
		}
	}
	return true
}

// scratchDir creates the run's scratch directory under root.
func scratchDir(root string) (string, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, "run-")
}
