package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"trinit"
	"trinit/internal/explain"
	"trinit/internal/query"
	"trinit/internal/rdf"
	"trinit/internal/relax"
	"trinit/internal/serial"
	"trinit/internal/server"
	"trinit/internal/store"
	"trinit/internal/suggest"
	"trinit/internal/topk"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Start and end are read from the thread CPU clock (see
// clock.go); every span is recorded on the run's locked thread.
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"` // thread CPU time since the tracer's origin
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"` // index of the parent span, -1 for a root
	Req    int           `json:"req"`    // request or batch the span belongs to
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so one code path serves traced and untraced requests.
type tracer struct {
	origin time.Duration
	spans  []span
	req    int
}

func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: threadCPU() - t.origin, Parent: parent, Req: t.req})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t != nil {
		t.spans[id].End = threadCPU() - t.origin
	}
}

// selfTimes returns each request's self time per span name: a span's
// duration minus the time its children cover (children of one span run
// one after another, so they never overlap).
func (t *tracer) selfTimes() map[int]map[string]time.Duration {
	covered := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[int]map[string]time.Duration)
	for i, s := range t.spans {
		m := out[s.Req]
		if m == nil {
			m = make(map[string]time.Duration)
			out[s.Req] = m
		}
		m[s.Name] += s.End - s.Start - covered[i]
	}
	return out
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// perName collects, over the given requests, each request's self time of
// the named spans.
func perName(self map[int]map[string]time.Duration, reqs []int, name string) []time.Duration {
	var out []time.Duration
	for _, r := range reqs {
		if d, ok := self[r][name]; ok {
			out = append(out, d)
		}
	}
	return out
}

// mirror runs a query through the same public module calls the engine's
// query path makes — parse, rewrite expansion, top-k, explanation,
// suggestion — over a store and rule set reloaded from the engine's
// snapshot.
type mirror struct {
	st    *store.Store
	exp   *relax.Expander
	cache *topk.Cache
	ex    *topk.Executor
	sug   *suggest.Suggester
}

func newMirror(st *store.Store, rules []*relax.Rule) *mirror {
	// The engine's defaults: K 10, incremental mode, serial schedule, the
	// block kernel, the default match-cache size; NewExpander carries
	// the engine's depth, rewrite and weight limits.
	cache := topk.NewCache(matchCacheSize)
	return &mirror{
		st:    st,
		exp:   relax.NewExpander(rules),
		cache: cache,
		ex:    topk.NewExecutor(st, cache, topk.Options{K: 10, Mode: topk.Incremental}),
		sug:   suggest.New(st),
	}
}

// request runs one query; t may be nil.
func (m *mirror) request(t *tracer, text string) ([]ranked, topk.Metrics, error) {
	ctx := context.Background()
	root := t.begin("request", -1)
	defer t.end(root)
	sp := t.begin("query.parse", root)
	q, err := query.Parse(text)
	t.end(sp)
	if err != nil {
		return nil, topk.Metrics{}, err
	}
	q.Projection = q.ProjectedVars()
	sp = t.begin("relax.expand", root)
	rws, err := m.exp.ExpandContext(ctx, q)
	t.end(sp)
	if err != nil {
		return nil, topk.Metrics{}, err
	}
	sp = t.begin("topk.run", root)
	answers, met, err := m.ex.Run(ctx, q, rws, topk.RunConfig{NoTrace: true})
	t.end(sp)
	if err != nil {
		return nil, topk.Metrics{}, err
	}
	met.RewritesTotal = len(rws)
	for _, a := range answers {
		sp = t.begin("explain.explain", root)
		explain.Explain(m.st, q, a)
		t.end(sp)
	}
	suggest.RuleNotices(answers)
	sp = t.begin("suggest.suggest", root)
	m.sug.Suggest(q)
	t.end(sp)

	dict := m.st.Dict()
	out := make([]ranked, len(answers))
	for i, a := range answers {
		b := make(map[string]string, len(a.Bindings))
		for v, id := range a.Bindings {
			b[v] = dict.Term(id).Text
		}
		out[i] = ranked{Bindings: b, Score: a.Score}
	}
	return out, met, nil
}

// traced runs the separate traced pass of a workload and sets the
// per-layer metrics.
func traced(c *config, w workload, v *env, rep *report) error {
	rep.Correct = true
	tr := &tracer{origin: threadCPU()}

	t := v.times
	rep.set("dataset.generate_s", t.generate.Seconds(), "s")
	rep.set("trinit.extend_s", t.extend.Seconds(), "s")
	rep.set("trinit.load_s", t.load.Seconds(), "s")
	rep.set("trinit.freeze_s", t.freeze.Seconds(), "s")
	rep.set("trinit.mine_s", t.mine.Seconds(), "s")

	snapPath := filepath.Join(c.scratch, "traced.trnt")
	if err := v.engine.SaveSnapshot(snapPath); err != nil {
		return err
	}
	snap, err := serial.ReadSnapshotFile(snapPath)
	if err != nil {
		return err
	}
	if err := readSide(c, v, tr, snap, rep); err != nil {
		return err
	}
	if err := writeSide(c, w, v, tr, snap, rep); err != nil {
		return err
	}
	if err := engineWriteSide(c, w, v, tr, rep); err != nil {
		return err
	}
	return tr.write(filepath.Join(filepath.Dir(c.scratch), "spans-"+w.name+".jsonl"))
}

// readSide traces the workload's requests through the mirror pipeline,
// the engine and the response encoder.
func readSide(c *config, v *env, tr *tracer, snap *serial.Snapshot, rep *report) error {
	m := newMirror(snap.Store, snap.Rules)
	ctx := context.Background()
	qs := v.queries
	start := time.Now()
	for i := 0; i < len(qs) && time.Since(start) < warmupLimit; i++ {
		if _, _, err := m.request(nil, qs[i]); err != nil {
			return fmt.Errorf("warm-up %q: %w", qs[i], err)
		}
	}
	cache0 := m.cache.Stats()

	// Each request is traced or not by a seeded coin, so both halves see
	// the same query mix; their difference is the tracing overhead.
	coin := rand.New(rand.NewSource(c.seed))
	var tracedReqs []int
	var plain, withSpans []time.Duration
	var sum topk.Metrics
	var rewrites, n int
	dur := time.Duration(c.seconds * float64(time.Second))
	start = time.Now()
	for i := 0; time.Since(start) < dur; i++ {
		text := qs[i%len(qs)]
		var t *tracer
		if coin.Intn(2) == 0 {
			t = tr
			tr.req++
			tracedReqs = append(tracedReqs, tr.req)
		}
		sw := startWatch()
		got, met, err := m.request(t, text)
		reqTime, _ := sw.stop()
		rep.Attempted++
		if err != nil {
			rep.Failed++
			continue
		}
		sum.Add(met)
		rewrites += met.RewritesTotal
		n++

		sp := t.begin("trinit.query", -1)
		res, err := v.engine.QueryContext(ctx, text, trinit.WithoutTrace())
		t.end(sp)
		if err != nil || !sameRanking(got, rankingOf(res)) {
			rep.Failed++
			continue
		}
		sp = t.begin("server.encode", -1)
		var buf bytes.Buffer
		err = json.NewEncoder(&buf).Encode(server.QueryResponse{
			Query: res.Query, Answers: res.Answers, Notices: res.Notices,
			Suggestions: res.Suggestions, Metrics: res.Metrics,
		})
		t.end(sp)
		if err != nil {
			rep.Failed++
			continue
		}
		if t == nil {
			plain = append(plain, reqTime)
		} else {
			withSpans = append(withSpans, reqTime)
		}
	}
	if n == 0 || len(plain) == 0 || len(withSpans) == 0 {
		return fmt.Errorf("traced read pass too short: %d requests", n)
	}
	rep.record["traced_requests"] = len(tracedReqs)

	self := tr.selfTimes()
	stage := func(metricName, span string, p99 string) {
		ds := perName(self, tracedReqs, span)
		rep.set(metricName, us(quantile(ds, 0.5)), "us")
		if p99 != "" {
			rep.set(p99, us(quantile(ds, 0.99)), "us")
		}
	}
	stage("query.parse_us", "query.parse", "")
	stage("relax.expand_us", "relax.expand", "relax.expand_p99_us")
	stage("topk.run_us", "topk.run", "topk.run_p99_us")
	stage("explain.explain_us", "explain.explain", "")
	stage("suggest.suggest_us", "suggest.suggest", "suggest.suggest_p99_us")
	stage("server.encode_us", "server.encode", "")
	stage("trinit.query_us", "trinit.query", "")
	var unattributed []float64
	for _, r := range tracedReqs {
		s := self[r]
		d := s["trinit.query"] - s["query.parse"] - s["relax.expand"] - s["topk.run"] - s["explain.explain"] - s["suggest.suggest"]
		unattributed = append(unattributed, us(d))
	}
	rep.set("trinit.unattributed_us", median(unattributed), "us")
	rep.set("perfbench.trace_overhead_pct", 100*(float64(quantile(withSpans, 0.5))/float64(quantile(plain, 0.5))-1), "%")

	per := func(x int) float64 { return float64(x) / float64(n) }
	ratio := func(a, b int) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	rep.set("relax.rewrites_per_query", per(rewrites), "count")
	rep.set("topk.index_scanned", per(sum.IndexScanned), "count")
	rep.set("topk.patterns_matched", per(sum.PatternsMatched), "count")
	rep.set("topk.token_resolutions", per(sum.TokenResolutions), "count")
	rep.set("topk.scan_fallbacks", per(sum.ScanFallbacks), "count")
	rep.set("topk.rewrites_evaluated", per(sum.RewritesEvaluated), "count")
	rep.set("topk.rewrites_skipped", per(sum.RewritesSkipped), "count")
	rep.set("topk.rewrite_skip_ratio", ratio(sum.RewritesSkipped, rewrites), "ratio")
	rep.set("topk.join_branches", per(sum.JoinBranches), "count")
	rep.set("topk.pruned_branches", per(sum.PrunedBranches), "count")
	rep.set("topk.prune_ratio", ratio(sum.PrunedBranches, sum.JoinBranches), "ratio")
	rep.set("topk.hash_probes", per(sum.HashProbes), "count")
	rep.set("topk.semijoin_dropped", per(sum.SemiJoinDropped), "count")
	rep.set("topk.blocks_emitted", per(sum.BlocksEmitted), "count")
	rep.set("topk.block_rows_filtered", per(sum.BlockRowsFiltered), "count")
	cs := m.cache.Stats()
	hits, misses := cs.Hits-cache0.Hits, cs.Misses-cache0.Misses
	rep.set("topk.cache_hit_ratio", ratio(hits, hits+misses), "ratio")
	rep.set("topk.cache_evictions", float64(cs.Evictions-cache0.Evictions), "count")
	return nil
}

// internFact maps a fact onto a triple over dict and prov the way live
// ingest does (resources where the dictionary knows the name, token
// phrases otherwise).
func internFact(dict *rdf.Dict, prov *rdf.ProvTable, f trinit.Fact) rdf.Triple {
	if !f.XKG {
		o := rdf.Resource(f.Object)
		if f.LiteralObject {
			o = rdf.Literal(f.Object)
		}
		return rdf.Triple{S: dict.Intern(rdf.Resource(f.Subject)), P: dict.Intern(rdf.Resource(f.Predicate)),
			O: dict.Intern(o), Source: rdf.SourceKG, Conf: 1, Prov: rdf.NoProv}
	}
	pv := rdf.NoProv
	if f.Doc != "" || f.Sentence != "" {
		pv = prov.Add(rdf.Prov{Doc: f.Doc, Sentence: f.Sentence})
	}
	term := func(s string) rdf.Term {
		if _, ok := dict.Lookup(rdf.Resource(s)); ok {
			return rdf.Resource(s)
		}
		return rdf.Token(s)
	}
	s, o := term(f.Subject), term(f.Object)
	return rdf.Triple{S: dict.Intern(s), P: dict.Intern(rdf.Token(f.Predicate)), O: dict.Intern(o),
		Source: rdf.SourceXKG, Conf: f.Confidence, Prov: pv}
}

// writeSide replays the writer's batches through the public steps
// IngestFacts and Checkpoint take — dictionary and provenance clone,
// delta build, write-ahead append, snapshot write and mapped reopen — on
// the reloaded snapshot store.
func writeSide(c *config, w workload, v *env, tr *tracer, snap *serial.Snapshot, rep *report) error {
	dir, err := os.MkdirTemp(c.scratch, "replay-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	wal, _, err := serial.OpenWAL(filepath.Join(dir, "wal.log"))
	if err != nil {
		return err
	}
	defer wal.Close()
	snapPath := filepath.Join(dir, "snapshot.trnt")

	base, cur := snap.Store, snap.Store
	var delta *store.Delta
	var mapped *serial.MappedSnapshot
	defer func() { mapped.Close() }()
	var first, last []time.Duration
	var rows []float64
	var batchReqs, ckptReqs []int
	var sizes []float64
	epoch := uint64(1)
	batches := min(4*w.every, len(v.held)/w.batch)
	for b := 0; b < batches; b++ {
		tr.req++
		batchReqs = append(batchReqs, tr.req)
		root := tr.begin("batch", -1)
		sp := tr.begin("rdf.dict_clone", root)
		dict, prov := cur.Dict().Clone(), cur.Prov().Clone()
		tr.end(sp)
		facts := v.held[b*w.batch : (b+1)*w.batch]
		triples := make([]rdf.Triple, len(facts))
		for i, f := range facts {
			triples[i] = internFact(dict, prov, f)
		}
		sp = tr.begin("store.build_delta", root)
		next, applied, err := store.BuildDelta(base, dict, delta, triples)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("replay batch %d: %w", b, err)
		}
		build := tr.spans[sp].End - tr.spans[sp].Start
		switch b % w.every {
		case 0:
			first = append(first, build)
		case w.every - 1:
			last = append(last, build)
		}
		delta = next
		rows = append(rows, float64(delta.Rows()))
		recs := make([]serial.WALRecord, len(applied))
		for i, t := range applied {
			pv := prov.Get(t.Prov)
			recs[i] = serial.WALRecord{Epoch: epoch, Op: serial.WALTriple, S: dict.Term(t.S), P: dict.Term(t.P),
				O: dict.Term(t.O), Source: t.Source, Conf: t.Conf, Doc: pv.Doc, Sentence: pv.Sentence}
		}
		sp = tr.begin("serial.wal_append", root)
		err = wal.Append(recs...)
		tr.end(sp)
		if err != nil {
			return err
		}
		cur = base.WithDelta(delta, dict, prov)
		tr.end(root)
		rep.Attempted++

		if (b+1)%w.every != 0 {
			continue
		}
		tr.req++
		ckptReqs = append(ckptReqs, tr.req)
		root = tr.begin("checkpoint", -1)
		merged := store.New(cur.Dict(), cur.Prov())
		for i, n := 0, cur.Len(); i < n; i++ {
			merged.Add(cur.Triple(store.ID(i)))
		}
		merged.Freeze()
		epoch++
		sp = tr.begin("serial.snapshot_write", root)
		err = serial.WriteSnapshotFile(snapPath, merged, snap.Rules, epoch)
		tr.end(sp)
		if err != nil {
			return err
		}
		if err := wal.Rotate(); err != nil {
			return err
		}
		sp = tr.begin("serial.snapshot_open", root)
		m, err := serial.OpenSnapshotMapped(snapPath)
		tr.end(sp)
		tr.end(root)
		if err != nil {
			return err
		}
		fi, err := os.Stat(snapPath)
		if err != nil {
			return err
		}
		sizes = append(sizes, float64(fi.Size()))
		mapped.Close()
		mapped, base, cur, delta = m, m.Store, m.Store, nil
		rep.Attempted++
	}
	if len(ckptReqs) == 0 || len(first) == 0 || len(last) == 0 {
		return fmt.Errorf("write replay too short: %d batches", batches)
	}
	self := tr.selfTimes()
	med := func(reqs []int, name string) time.Duration { return quantile(perName(self, reqs, name), 0.5) }
	rep.set("rdf.dict_clone_us", us(med(batchReqs, "rdf.dict_clone")), "us")
	rep.set("store.build_delta_us", us(med(batchReqs, "store.build_delta")), "us")
	rep.set("store.build_delta_first_us", us(quantile(first, 0.5)), "us")
	rep.set("store.build_delta_last_us", us(quantile(last, 0.5)), "us")
	rep.set("store.delta_rows", median(rows), "count")
	rep.set("serial.wal_append_us", us(med(batchReqs, "serial.wal_append")), "us")
	rep.set("serial.snapshot_write_ms", ms(med(ckptReqs, "serial.snapshot_write")), "ms")
	rep.set("serial.snapshot_open_ms", ms(med(ckptReqs, "serial.snapshot_open")), "ms")
	rep.set("serial.snapshot_bytes", median(sizes), "B")
	return nil
}

// engineWriteSide ingests the same batches through the engine itself —
// IngestFacts, the first query on each newly published store version,
// and Checkpoint — then checks the result against a pre-Freeze oracle.
func engineWriteSide(c *config, w workload, v *env, tr *tracer, rep *report) error {
	e := v.engine
	if v.dataDir == "" {
		dir, err := os.MkdirTemp(c.scratch, "probe-")
		if err != nil {
			return err
		}
		v.dataDir = dir
		if err := e.Persist(dir); err != nil {
			return err
		}
	}
	ctx := context.Background()
	var ingest, cold, ckpt []time.Duration
	batches := min(4*w.every, len(v.held)/w.batch)
	for b := 0; b < batches; b++ {
		tr.req++
		sp := tr.begin("trinit.ingest", -1)
		_, err := e.IngestFacts(v.held[b*w.batch : (b+1)*w.batch])
		tr.end(sp)
		rep.Attempted++
		if err != nil {
			rep.Failed++
			continue
		}
		ingest = append(ingest, tr.spans[sp].End-tr.spans[sp].Start)
		sp = tr.begin("trinit.cold_version_query", -1)
		_, err = e.QueryContext(ctx, v.queries[b%len(v.queries)], trinit.WithoutTrace())
		tr.end(sp)
		rep.Attempted++
		if err != nil {
			rep.Failed++
		}
		cold = append(cold, tr.spans[sp].End-tr.spans[sp].Start)
		if (b+1)%w.every == 0 {
			sp = tr.begin("trinit.checkpoint", -1)
			err := e.Checkpoint()
			tr.end(sp)
			rep.Attempted++
			if err != nil {
				rep.Failed++
				continue
			}
			ckpt = append(ckpt, tr.spans[sp].End-tr.spans[sp].Start)
		}
	}
	if len(ingest) == 0 || len(ckpt) == 0 {
		return fmt.Errorf("engine write pass too short: %d batches", batches)
	}
	rep.set("trinit.ingest_us", us(quantile(ingest, 0.5)), "us")
	rep.set("trinit.cold_version_query_ms", ms(quantile(cold, 0.5)), "ms")
	rep.set("trinit.checkpoint_ms", ms(quantile(ckpt, 0.5)), "ms")

	if err := e.Checkpoint(); err != nil {
		return err
	}
	bad, err := oracleCheck(v, v.held[:batches*w.batch], v.queries)
	if err != nil {
		return err
	}
	rep.Attempted += len(oracleQueries(v.queries))
	rep.Failed += bad
	return nil
}
