package server

// Serving-under-load contract at the HTTP layer: liveness/readiness
// probes, Prometheus metrics, 429 + Retry-After on admission shed,
// budget degradation to 200 + partial, and the SSE client-disconnect
// regression (a dropped stream consumer must cancel the underlying
// query, not leave it evaluating for a reader that is gone). Run with
// -race; CI gates on these tests by name.

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"trinit"
	"trinit/internal/faultinject"
)

func TestHealthzAlwaysOK(t *testing.T) {
	if rec := get(t, testServer(), "/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("healthz on a frozen engine: %d", rec.Code)
	}
	// Liveness is not readiness: an unfrozen engine is alive too.
	unfrozen := New(trinit.New(nil))
	if rec := get(t, unfrozen, "/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("healthz on an unfrozen engine: %d", rec.Code)
	}
}

func TestReadyzTracksEngineState(t *testing.T) {
	if rec := get(t, testServer(), "/readyz"); rec.Code != http.StatusOK {
		t.Fatalf("readyz on a frozen engine: %d", rec.Code)
	}
	unfrozen := New(trinit.New(nil))
	rec := get(t, unfrozen, "/readyz")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz on an unfrozen engine: %d, want 503", rec.Code)
	}
	// "not frozen" must not be conflated with "loading": the engine
	// exists, it just cannot answer queries yet.
	if body := strings.TrimSpace(rec.Body.String()); body != "not frozen" {
		t.Fatalf("readyz body on an unfrozen engine = %q, want %q", body, "not frozen")
	}
}

// TestLoadingStateUntilPublish: a NewLoading server distinguishes
// "still recovering from disk" from every other unready state — probes
// answer, API traffic gets 503 + Retry-After — and flips atomically to
// serving when the engine is published.
func TestLoadingStateUntilPublish(t *testing.T) {
	s := NewLoading()

	if rec := get(t, s, "/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("healthz while loading: %d", rec.Code)
	}
	rec := get(t, s, "/readyz")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while loading: %d, want 503", rec.Code)
	}
	if body := strings.TrimSpace(rec.Body.String()); body != "loading" {
		t.Fatalf("readyz body while loading = %q, want %q", body, "loading")
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("readyz while loading: missing Retry-After")
	}
	for _, path := range []string{
		"/api/query?q=" + escaped("AlbertEinstein hasAdvisor ?x"),
		"/api/stats",
		"/api/rules",
	} {
		rec := get(t, s, path)
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("%s while loading: %d, want 503", path, rec.Code)
		}
		if rec.Header().Get("Retry-After") == "" {
			t.Fatalf("%s while loading: missing Retry-After", path)
		}
	}
	if rec := get(t, s, "/metrics"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("metrics while loading: %d, want 503", rec.Code)
	}

	s.Publish(trinit.NewDemoEngine())
	if rec := get(t, s, "/readyz"); rec.Code != http.StatusOK {
		t.Fatalf("readyz after publish: %d", rec.Code)
	}
	if rec := get(t, s, "/api/query?q="+escaped("AlbertEinstein hasAdvisor ?x")); rec.Code != http.StatusOK {
		t.Fatalf("query after publish: %d", rec.Code)
	}
}

// TestMetricsEndpoint: the Prometheus text exposition carries the
// serving counters and they move with traffic.
func TestMetricsEndpoint(t *testing.T) {
	e := trinit.NewDemoEngine()
	s := New(e)
	if rec := get(t, s, "/api/query?q="+escaped("AlbertEinstein hasAdvisor ?x")); rec.Code != http.StatusOK {
		t.Fatalf("query: %d", rec.Code)
	}
	rec := get(t, s, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type = %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"trinit_queries_total 1",
		"trinit_queries_in_flight 0",
		"trinit_queries_shed_total 0",
		"trinit_budget_exhausted_total 0",
		"trinit_panics_recovered_total 0",
		"trinit_admission_capacity 0",
		"trinit_cache_hits_total",
		"trinit_store_triples",
		"# TYPE trinit_queries_total counter",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
}

// TestReadmeMetricsExposed: every trinit_* metric the README documents
// is exposed by /metrics, so the operator docs cannot name a metric the
// daemon no longer serves.
func TestReadmeMetricsExposed(t *testing.T) {
	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	names := regexp.MustCompile(`trinit_[a-z0-9_]+`).FindAllString(string(readme), -1)
	if len(names) == 0 {
		t.Fatal("README names no trinit_* metric")
	}
	body := get(t, New(trinit.NewDemoEngine()), "/metrics").Body.String()
	for _, name := range names {
		if !strings.Contains(body, "# TYPE "+name+" ") {
			t.Errorf("README names %s, which /metrics does not expose", name)
		}
	}
}

// holdQuery parks the next engine evaluations on the returned channel
// and reports (via entered) when the first one is inside the engine.
func holdQuery(t *testing.T) (hold chan struct{}, entered chan struct{}) {
	t.Helper()
	hold = make(chan struct{})
	entered = make(chan struct{}, 16)
	s := faultinject.NewScript().CallOn(faultinject.SiteRewriteEval, "", 0, func() {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-hold
	})
	s.Install()
	t.Cleanup(faultinject.Clear)
	return hold, entered
}

// TestOverloadSheds429WithRetryAfter: with one query running and one
// queued, a third is shed as 429 with a Retry-After hint, readiness
// flips to 503, and the shed counter shows in /metrics.
func TestOverloadSheds429WithRetryAfter(t *testing.T) {
	e := trinit.NewDemoEngine()
	e.SetAdmissionControl(1, 1)
	s := New(e)
	hold, entered := holdQuery(t)

	first := make(chan int, 1)
	go func() { first <- get(t, s, "/api/query?q="+escaped("AlbertEinstein hasAdvisor ?x")).Code }()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("first query never started evaluating")
	}
	second := make(chan int, 1)
	go func() { second <- get(t, s, "/api/query?q="+escaped("?x bornIn Germany")).Code }()
	deadline := time.Now().Add(5 * time.Second)
	for e.ServingStats().Admission.Queued == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second query never queued")
		}
		time.Sleep(time.Millisecond)
	}

	if rec := get(t, s, "/readyz"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while saturated = %d, want 503", rec.Code)
	}
	rec := get(t, s, "/api/query?q="+escaped("AlbertEinstein hasAdvisor ?x"))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("shed query status = %d, want 429: %s", rec.Code, rec.Body)
	}
	ra, err := strconv.Atoi(rec.Header().Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want an integer >= 1", rec.Header().Get("Retry-After"))
	}

	close(hold)
	if code := <-first; code != http.StatusOK {
		t.Fatalf("held query status = %d", code)
	}
	if code := <-second; code != http.StatusOK {
		t.Fatalf("queued query status = %d", code)
	}
	if rec := get(t, s, "/readyz"); rec.Code != http.StatusOK {
		t.Fatalf("readyz after drain = %d, want 200", rec.Code)
	}
	if !strings.Contains(get(t, s, "/metrics").Body.String(), "trinit_queries_shed_total 1") {
		t.Fatal("shed not visible in /metrics")
	}
}

// syntheticTestServer wraps a synthetic-world engine — the demo world
// is too small for any budget to trip — in a fresh server.
func syntheticTestServer(t *testing.T) (*Server, *trinit.Engine) {
	t.Helper()
	e, _, err := trinit.NewSyntheticEngine(trinit.DefaultSyntheticConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return New(e), e
}

// expensiveQ is a two-hop open join over the synthetic world: thousands
// of join branches, so a budget of one branch always trips.
const expensiveQ = "?x ?p ?y . ?y ?q ?z"

// TestBudgetParamDegradesTo200Partial: the budget=<n> query parameter
// degrades an expensive query into 200 + partial with
// partial_reason=budget — overload never masquerades as failure to a
// connected client.
func TestBudgetParamDegradesTo200Partial(t *testing.T) {
	s, _ := syntheticTestServer(t)
	rec := get(t, s, "/api/query?budget=1&mode=exhaustive&q="+escaped(expensiveQ))
	if rec.Code != http.StatusOK {
		t.Fatalf("budgeted query status = %d, want 200: %s", rec.Code, rec.Body)
	}
	body := rec.Body.String()
	if !strings.Contains(body, `"partial":true`) {
		t.Fatalf("budgeted response not partial: %s", body)
	}
	if !strings.Contains(body, `"partial_reason":"budget"`) {
		t.Fatalf("budgeted response missing partial_reason: %s", body)
	}
	if rec := get(t, s, "/api/query?budget=oops&q="+escaped("?x ?p ?y")); rec.Code != http.StatusBadRequest {
		t.Fatalf("malformed budget status = %d, want 400", rec.Code)
	}
	if !strings.Contains(get(t, s, "/metrics").Body.String(), "trinit_budget_exhausted_total 1") {
		t.Fatal("budget exhaustion not visible in /metrics")
	}
}

// TestStreamBudgetDoneEvent: on the SSE endpoint a budget-degraded
// query still terminates with a done event marked partial.
func TestStreamBudgetDoneEvent(t *testing.T) {
	s, _ := syntheticTestServer(t)
	rec := get(t, s, "/api/query/stream?budget=1&mode=exhaustive&q="+escaped(expensiveQ))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body)
	}
	events := parseSSE(t, rec.Body.String())
	last := events[len(events)-1]
	if last.name != "done" {
		t.Fatalf("terminal event = %q, want done", last.name)
	}
	if last.data["partial"] != true {
		t.Fatalf("done event not partial: %v", last.data)
	}
	if last.data["partial_reason"] != "budget" {
		t.Fatalf("done partial_reason = %v, want budget", last.data["partial_reason"])
	}
}

// TestStreamClientDisconnectCancelsQuery is the disconnect regression:
// a client that drops an SSE stream mid-query must cancel the
// underlying evaluation. The first rewrite evaluation parks on a
// channel while the client disconnects; after release, cancellation
// must stop the query at the next poll — proven by the injection
// counter: exactly one rewrite evaluation ever started, where the
// fault-free query evaluates two.
func TestStreamClientDisconnectCancelsQuery(t *testing.T) {
	e := trinit.NewDemoEngine()
	s := New(e)
	srv := httptest.NewServer(s)
	defer srv.Close()

	hold := make(chan struct{})
	entered := make(chan struct{}, 16)
	script := faultinject.NewScript().CallOn(faultinject.SiteRewriteEval, "", 0, func() {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-hold
	})
	defer script.Install()()

	// The demo advisor query evaluates 2 rewrites fault-free.
	const streamQ = "AlbertEinstein hasAdvisor ?x"
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		srv.URL+"/api/query/stream?mode=exhaustive&q="+escaped(streamQ), nil)
	if err != nil {
		t.Fatal(err)
	}
	clientDone := make(chan struct{})
	go func() {
		defer close(clientDone)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
	}()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("stream query never started evaluating")
	}
	if got := e.ServingStats().InFlight; got != 1 {
		t.Fatalf("InFlight = %d with an open stream, want 1", got)
	}

	// Drop the client, give the server time to observe the closed
	// connection and cancel r.Context(), then release the evaluation.
	cancel()
	<-clientDone
	time.Sleep(250 * time.Millisecond)
	close(hold)

	deadline := time.Now().Add(5 * time.Second)
	for e.ServingStats().InFlight != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("InFlight = %d long after client disconnect", e.ServingStats().InFlight)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if fired := script.Fired(faultinject.SiteRewriteEval, ""); fired != 1 {
		t.Fatalf("%d rewrite evaluations started after disconnect, want 1 (cancellation did not stop the query)", fired)
	}

	// The engine is still serviceable.
	faultinject.Clear()
	if rec := get(t, s, "/api/query?q="+escaped(streamQ)); rec.Code != http.StatusOK {
		t.Fatalf("post-disconnect query status = %d", rec.Code)
	}
}
