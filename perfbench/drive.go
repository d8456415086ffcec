package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"trinit"
	"trinit/internal/serial"
	"trinit/internal/server"
)

// reader is the closed-loop client: it sends the next request through the
// server's handler only after the previous one has returned, and checks
// every response.
type reader struct {
	h       http.Handler
	queries []string
	urls    []string
	refs    map[string][]ranked // nil: check status and decoding only
	// order is the current pass over the queries; every pass is a fresh
	// permutation drawn from rng, so no one arrangement of the requests
	// (and of the match lists they build) sets a run's figures.
	order []int
	rng   *rand.Rand
	next  int
	// checked holds, per query, the hash of the last response body that
	// passed the full check; a byte-identical body passes without being
	// decoded again, which keeps the client's own work (and garbage) out
	// of the server's measured latency.
	checked map[int]uint64
	seed    maphash.Seed

	lat, wall []time.Duration // per request: CPU and wall time of ServeHTTP
	// done holds, per correct response, when it completed on the
	// read-side CPU clock: the process's CPU time since the loop started,
	// less the writer thread's. busy holds the same on the wall clock
	// less the reader thread's run-queue wait.
	done, busy        []time.Duration
	wallTime          time.Duration // the loop's wall time
	attempted, failed int

	// dues releases the open-loop writer's batches (nil without a
	// writer); period is the reader CPU time between two batches;
	// writerTID is the writer's OS thread, whose CPU time the read-side
	// clock leaves out.
	dues      chan time.Time
	period    time.Duration
	released  int
	writerTID int
}

// readSide returns the read-side CPU clock: the process's CPU time less
// the writer thread's.
func (r *reader) readSide() time.Duration {
	t := processCPU()
	if r.writerTID != 0 {
		t -= threadCPUOf(r.writerTID)
	}
	return t
}

func newReader(e *trinit.Engine, queries []string, refs map[string][]ranked, rng *rand.Rand) *reader {
	r := &reader{h: server.New(e), queries: queries, refs: refs, checked: map[int]uint64{}, seed: maphash.MakeSeed(), rng: rng}
	for _, q := range queries {
		r.urls = append(r.urls, "/api/query?q="+url.QueryEscape(q))
	}
	return r
}

// wireAnswers is the part of server.QueryResponse the check reads.
type wireAnswers struct {
	Answers []ranked `json:"answers"`
}

// one sends the next query and returns its CPU and wall time and whether
// the response was correct. The handler runs the whole query on the
// calling goroutine.
func (r *reader) one() (cpu, wall time.Duration, ok bool) {
	if r.next%len(r.queries) == 0 {
		r.order = r.rng.Perm(len(r.queries))
	}
	i := r.order[r.next%len(r.queries)]
	r.next++
	req := httptest.NewRequest(http.MethodGet, r.urls[i], nil)
	rec := httptest.NewRecorder()
	sw := startWatch()
	r.h.ServeHTTP(rec, req)
	cpu, wall = sw.stop()
	if rec.Code != http.StatusOK {
		return cpu, wall, false
	}
	body := rec.Body.Bytes()
	h := maphash.Bytes(r.seed, body)
	if prev, seen := r.checked[i]; seen && prev == h {
		return cpu, wall, true
	}
	var got wireAnswers
	if err := json.Unmarshal(body, &got); err != nil {
		return cpu, wall, false
	}
	if r.refs != nil && !sameRanking(got.Answers, r.refs[r.queries[i]]) {
		return cpu, wall, false
	}
	r.checked[i] = h
	return cpu, wall, true
}

// warmup runs one untimed pass over the query set, capped at
// warmupLimit; its responses are checked but not counted.
func (r *reader) warmup() error {
	start := time.Now()
	for i := 0; i < len(r.queries) && time.Since(start) < warmupLimit; i++ {
		if _, _, ok := r.one(); !ok {
			return fmt.Errorf("warm-up query %q failed", r.queries[r.order[i]])
		}
	}
	return nil
}

// loop runs timed requests until d of wall time has passed. With dues set,
// it also releases the open-loop writer's batches: batch i falls due once
// the reader has spent i × period of CPU time serving requests.
func (r *reader) loop(d time.Duration) {
	var served, nextDue time.Duration
	start, q0, c0 := time.Now(), queued(), r.readSide()
	for time.Since(start) < d {
		cpu, wall, ok := r.one()
		r.attempted++
		served += cpu
		for r.dues != nil && served >= nextDue && r.released < cap(r.dues) {
			r.dues <- time.Now()
			r.released++
			nextDue += r.period
		}
		if !ok {
			r.failed++
			continue
		}
		r.lat = append(r.lat, cpu)
		r.wall = append(r.wall, wall)
		r.done = append(r.done, r.readSide()-c0)
		r.busy = append(r.busy, time.Since(start)-(queued()-q0))
	}
	r.wallTime = time.Since(start)
}

// writer is the ingest client, checkpointing the engine every `every`
// batches. Open loop (ingest_mixed): each batch is sent when it falls due,
// whether or not earlier batches have finished, and is also timed from its
// due time. Closed loop (the write probe of read-only workloads): each
// batch is sent when the previous one returns.
type writer struct {
	e           *trinit.Engine
	held        []trinit.Fact
	size, every int // facts per batch, batches per checkpoint
	used        int // held-out facts handed to IngestFacts so far

	lat      []time.Duration // IngestFacts CPU time
	busy     []time.Duration // IngestFacts wall time less run-queue wait
	fromDue  []time.Duration // batch wall time from its due time
	late     []time.Duration // how late the batch started
	ckpt     []time.Duration // Checkpoint wall time less run-queue wait
	ckptCPU  []time.Duration // Checkpoint CPU time
	ckptWall []time.Duration // Checkpoint wall time

	attempted, failed int

	// tid is the OS thread of the open-loop writer, set before ready
	// closes.
	tid   int
	ready chan struct{}
}

// batches is how many whole batches the held-out facts hold.
func (w *writer) batches() int { return len(w.held) / w.size }

// ingest sends the next batch, due at the given wall time, and
// checkpoints after every `every` batches.
func (w *writer) ingest(due time.Time) {
	w.late = append(w.late, time.Since(due))
	batch := w.held[w.used : w.used+w.size]
	w.used += w.size
	w.attempted++
	q := queued()
	sw := startWatch()
	if _, err := w.e.IngestFacts(batch); err != nil {
		w.failed++
		return
	}
	cpu, wall := sw.stop()
	w.lat = append(w.lat, cpu)
	w.busy = append(w.busy, wall-(queued()-q))
	w.fromDue = append(w.fromDue, time.Since(due))
	if (w.used/w.size)%w.every == 0 {
		w.checkpoint(true)
	}
}

// openLoop sends one batch per due time received until stop closes or
// dues is closed. It runs on one OS thread, which it names in w.tid
// before closing w.ready.
func (w *writer) openLoop(dues <-chan time.Time, stop <-chan struct{}) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	w.tid = syscall.Gettid()
	close(w.ready)
	for {
		select {
		case <-stop:
			return
		case due, ok := <-dues:
			if !ok {
				return
			}
			w.ingest(due)
		}
	}
}

// closedLoop sends n batches back to back.
func (w *writer) closedLoop(n int) {
	for b := 0; b < n && b < w.batches(); b++ {
		w.ingest(time.Now())
	}
}

// checkpoint runs one Checkpoint; keep records its time.
func (w *writer) checkpoint(keep bool) {
	w.attempted++
	q := queued()
	sw := startWatch()
	if err := w.e.Checkpoint(); err != nil {
		w.failed++
		return
	}
	cpu, wall := sw.stop()
	if keep {
		w.ckpt = append(w.ckpt, wall-(queued()-q))
		w.ckptCPU = append(w.ckptCPU, cpu)
		w.ckptWall = append(w.ckptWall, wall)
	}
}

// timed runs the measured pass of a workload and sets the end-to-end
// metrics.
func timed(c *config, w workload, v *env, rep *report) error {
	phase := time.Now()
	var refs map[string][]ranked
	if !w.mixed {
		var err error
		if refs, err = references(v.engine, v.queries); err != nil {
			return err
		}
	}
	rep.record["references_s"] = time.Since(phase).Seconds()
	rd := newReader(v.engine, v.queries, refs, rand.New(rand.NewSource(c.seed)))
	if err := rd.warmup(); err != nil {
		return err
	}
	wr := &writer{e: v.engine, held: v.held, size: w.batch, every: w.every}
	dur := time.Duration(c.seconds * float64(time.Second))
	// Each measured phase starts from a collected heap, not from the
	// garbage the previous phase left.
	runtime.GC()
	if w.mixed {
		// The schedule runs on the reader's CPU clock, not the wall clock,
		// so the number of requests each store version serves (and with
		// it how many requests find a cold match cache) does not follow
		// the host's steal time. The buffer holds every batch the held-out
		// facts allow, so the reader never blocks on it.
		rd.dues = make(chan time.Time, wr.batches())
		rd.period = time.Second / writeRate
		wr.ready = make(chan struct{})
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			wr.openLoop(rd.dues, stop)
		}()
		<-wr.ready
		rd.writerTID = wr.tid
		rd.loop(dur)
		close(stop)
		wg.Wait()
	} else {
		rd.loop(dur)
		phase = time.Now()
		// The write probe: a closed-loop writer with no reader beside
		// it, on the engine the reader just measured.
		dir, err := os.MkdirTemp(c.scratch, "probe-")
		if err != nil {
			return err
		}
		v.dataDir = dir
		if err := v.engine.Persist(dir); err != nil {
			return err
		}
		runtime.GC()
		wr.closedLoop(probeBatches)
		rep.record["probe_s"] = time.Since(phase).Seconds()
	}
	wr.checkpoint(false)
	phase = time.Now()
	bad, err := oracleCheck(v, wr.held[:wr.used], v.queries)
	if err != nil {
		return err
	}
	rep.record["oracle_s"] = time.Since(phase).Seconds()

	rep.Attempted = rd.attempted + wr.attempted + len(oracleQueries(v.queries))
	rep.Failed = rd.failed + wr.failed + bad
	rep.Correct = true
	if len(rd.lat) == 0 || len(wr.lat) == 0 || len(wr.ckpt) == 0 {
		return fmt.Errorf("run too short: %d requests, %d batches, %d checkpoints", len(rd.lat), len(wr.lat), len(wr.ckpt))
	}
	// Read-side CPU time: query_qps. Wall time less run-queue wait:
	// checkpoint_ms. Thread CPU time: the request and batch percentiles.
	// Their wall-clock versions follow the host (see clock.go); the run
	// record holds each on the other clocks too.
	rep.set("query_p50_ms", ms(quantile(rd.lat, 0.50)), "ms")
	rep.set("query_p99_ms", ms(quantile(rd.lat, 0.99)), "ms")
	rep.set("query_qps", median(perWindow(rd.done, time.Second)), "1/s")
	rep.set("ingest_p50_ms", ms(quantile(wr.lat, 0.50)), "ms")
	rep.set("ingest_p90_ms", ms(quantile(wr.lat, 0.90)), "ms")
	rep.set("checkpoint_ms", ms(quantile(wr.ckpt, 0.50)), "ms")
	rep.record["query_wall_p50_ms"] = ms(quantile(rd.wall, 0.50))
	rep.record["query_wall_p99_ms"] = ms(quantile(rd.wall, 0.99))
	rep.record["query_cpu_qps"] = float64(len(rd.lat)) / sum(rd.lat).Seconds()
	rep.record["query_busy_qps"] = median(perWindow(rd.busy, time.Second))
	rep.record["ingest_busy_p50_ms"] = ms(quantile(wr.busy, 0.50))
	rep.record["ingest_from_due_p50_ms"] = ms(quantile(wr.fromDue, 0.50))
	rep.record["ingest_from_due_p90_ms"] = ms(quantile(wr.fromDue, 0.90))
	rep.record["checkpoint_cpu_ms"] = ms(quantile(wr.ckptCPU, 0.50))
	rep.record["checkpoint_wall_ms"] = ms(quantile(wr.ckptWall, 0.50))
	rep.record["query_wall_qps"] = float64(len(rd.done)) / rd.wallTime.Seconds()
	rep.record["requests"] = len(rd.lat)
	rep.record["batches"] = len(wr.lat)
	rep.record["checkpoints"] = len(wr.ckpt)
	if w.mixed {
		rep.record["writer_late_p50_ms"] = ms(quantile(wr.late, 0.50))
		rep.record["writer_late_max_ms"] = ms(quantile(wr.late, 1))
		rep.record["batches_released"] = rd.released
	}
	rep.record["oracle_mismatches"] = bad
	return nil
}

// oracleQueries is the query set the post-ingest oracle check compares:
// the first 70 of the reader's queries.
func oracleQueries(queries []string) []string {
	if len(queries) > 70 {
		return queries[:70]
	}
	return queries
}

// oracleCheck compares the engine's rankings after ingest with those of
// an engine that loaded the same facts before Freeze and holds the same
// rules, evaluated exhaustively. It returns the number of queries whose
// rankings differ.
func oracleCheck(v *env, ingested []trinit.Fact, queries []string) (int, error) {
	all := append(append([]trinit.Fact(nil), v.base...), ingested...)
	var t setupTimes
	oracle, err := loadFrozen(all, &t)
	if err != nil {
		return 0, fmt.Errorf("oracle: %w", err)
	}
	// The engine's rules, read back from the snapshot the final
	// checkpoint wrote (Engine.Rules renders them for display, not for
	// re-parsing).
	snap, err := serial.ReadSnapshotFile(filepath.Join(v.dataDir, "snapshot.trnt"))
	if err != nil {
		return 0, fmt.Errorf("oracle: %w", err)
	}
	for _, r := range snap.Rules {
		if err := oracle.AddRule(r.ID, serial.RuleText(r), r.Weight); err != nil {
			return 0, fmt.Errorf("oracle rule %s: %w", r.ID, err)
		}
	}
	ctx := context.Background()
	bad := 0
	for _, q := range oracleQueries(queries) {
		got, err := v.engine.QueryContext(ctx, q, trinit.WithoutTrace(), trinit.WithoutExplanations())
		if err != nil {
			bad++
			continue
		}
		want, err := oracle.QueryContext(ctx, q, trinit.WithMode(trinit.ModeExhaustive), trinit.WithoutTrace(), trinit.WithoutExplanations())
		if err != nil {
			return 0, fmt.Errorf("oracle query %q: %w", q, err)
		}
		if !sameRanking(rankingOf(got), rankingOf(want)) {
			bad++
		}
	}
	return bad, nil
}
