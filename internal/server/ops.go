package server

// This file implements the operational endpoints of the daemon:
// liveness (/healthz), readiness (/readyz) and a Prometheus
// text-format /metrics rendering of the engine's serving, cache and
// store counters. The exposition format is hand-rendered — the
// counters are flat and the project carries no dependencies — following
// the text format's two-line contract (# HELP/# TYPE then samples).

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"trinit"
)

// handleHealthz is the liveness probe: the process is up and the
// handler loop is serving. It deliberately touches no engine state —
// an overloaded or not-yet-frozen engine is still alive.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

// handleReadyz is the readiness probe: 200 when the engine can usefully
// accept a query right now (frozen, and admission — when enabled — not
// saturated), 503 otherwise so load balancers steer traffic away. The
// body names the distinct cause — "loading" (recovery still replaying
// the data directory), "not frozen", or "saturated" — and 503s carry a
// Retry-After hint: a fixed second for loading/not-frozen, the
// admission queue's EWMA wait when saturated.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	e := s.eng()
	if e == nil {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "loading")
		return
	}
	state := e.ReadyState()
	if state != trinit.ReadyOK {
		retry := time.Second
		if state == trinit.ReadySaturated {
			if avg := e.ServingStats().Admission.AvgWait; avg > retry {
				retry = avg
			}
		}
		w.Header().Set("Retry-After", strconv.Itoa(int(retry.Round(time.Second)/time.Second)))
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, state.String())
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ready")
}

// metric writes one Prometheus sample with its HELP/TYPE preamble.
func metric(b *strings.Builder, name, typ, help string, value any) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n%s %v\n", name, help, name, typ, name, value)
}

// handleMetrics renders the engine's counters in the Prometheus text
// exposition format: serving health (queries, sheds, budget
// exhaustions, recovered panics), admission state, match-list cache
// activity, and store size.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	e := s.eng()
	if e == nil {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "loading")
		return
	}
	serving := e.ServingStats()
	cache := e.CacheStats()
	stats := e.Stats()

	var b strings.Builder
	metric(&b, "trinit_queries_total", "counter",
		"Queries accepted for processing, including shed ones.", serving.QueriesTotal)
	metric(&b, "trinit_queries_in_flight", "gauge",
		"Queries currently evaluating.", serving.InFlight)
	metric(&b, "trinit_queries_shed_total", "counter",
		"Queries rejected by admission control.", serving.QueriesShed)
	metric(&b, "trinit_budget_exhausted_total", "counter",
		"Queries degraded to a partial result by cost-budget exhaustion.", serving.BudgetExhausted)
	metric(&b, "trinit_panics_recovered_total", "counter",
		"Evaluation panics recovered at the query or worker boundary.", serving.PanicsRecovered)

	adm := serving.Admission
	metric(&b, "trinit_admission_capacity", "gauge",
		"Total evaluation weight admission allows concurrently (0 = disabled).", adm.Capacity)
	metric(&b, "trinit_admission_in_use", "gauge",
		"Evaluation weight currently admitted.", adm.InUse)
	metric(&b, "trinit_admission_queued", "gauge",
		"Queries waiting for admission.", adm.Queued)
	metric(&b, "trinit_admission_admitted_total", "counter",
		"Queries admitted by the controller.", adm.Admitted)
	metric(&b, "trinit_admission_wait_seconds", "gauge",
		"EWMA of recent admission queue waits.", adm.AvgWait.Seconds())

	metric(&b, "trinit_cache_entries", "gauge",
		"Match lists currently cached.", cache.Entries)
	metric(&b, "trinit_cache_hits_total", "counter",
		"Match-list lookups served from the cache.", cache.Hits)
	metric(&b, "trinit_cache_misses_total", "counter",
		"Match-list lookups that built a new list.", cache.Misses)
	metric(&b, "trinit_cache_evictions_total", "counter",
		"Match lists evicted by the LRU cap.", cache.Evictions)
	metric(&b, "trinit_cache_singleflight_waits_total", "counter",
		"Lookups that waited on a concurrent build of the same pattern.", cache.SingleFlightWaits)
	metric(&b, "trinit_plans_computed_total", "counter",
		"Join-planner invocations.", cache.PlansComputed)
	metric(&b, "trinit_token_resolutions_total", "counter",
		"Distinct token resolutions built into the shared cache.", cache.TokenResolutions)

	metric(&b, "trinit_store_triples", "gauge",
		"Triples in the extended knowledge graph.", stats.Triples)
	metric(&b, "trinit_store_terms", "gauge",
		"Distinct terms in the dictionary.", stats.Terms)
	metric(&b, "trinit_rules", "gauge",
		"Registered relaxation rules.", stats.Rules)

	mem := e.MemoryStats()
	mapped := 0
	if mem.Mapped {
		mapped = 1
	}
	metric(&b, "trinit_segment_epoch", "gauge",
		"Snapshot epoch of the store version being served (0 = in-memory).", mem.Epoch)
	metric(&b, "trinit_segment_mapped", "gauge",
		"1 when the base segment serves zero-copy from a memory mapping.", mapped)
	metric(&b, "trinit_segment_mapped_bytes", "gauge",
		"Size of the memory-mapped base segment (0 = heap-resident).", mem.MappedBytes)
	metric(&b, "trinit_delta_triples", "gauge",
		"Live-ingest triples overlaid on the base segment.", mem.DeltaTriples)
	metric(&b, "trinit_delta_overrides", "gauge",
		"Higher-confidence live replacements of base facts in the overlay.", mem.DeltaOverrides)
	metric(&b, "trinit_compactions_total", "counter",
		"Delta-into-base folds since the engine started.", mem.Compactions)
	metric(&b, "trinit_pinned_versions", "gauge",
		"Retired store versions still pinned by in-flight queries or unreleased results.", mem.PinnedVersions)
	metric(&b, "trinit_ingested_facts_total", "counter",
		"Facts applied by live ingest since the engine started.", mem.IngestedFacts)

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte(b.String()))
}
