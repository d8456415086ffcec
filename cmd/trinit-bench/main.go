// Command trinit-bench regenerates the paper's evaluation artefacts
// (experiments E1–E6) plus the ablation studies E7–E8 and the durability
// experiment E9. Each experiment's runner and its columns are documented
// in package internal/experiments.
//
// Usage:
//
//	trinit-bench [-exp all|e1|...|e9|e5,e9] [-scale small|bench|benchxN] [-queries 70] [-seed 1] [-json BENCH_10.json]
//
// -scale benchxN multiplies the bench world's entity counts by N (e.g.
// benchx100 for a ~100× world) — the regime where zero-copy mapped
// segments pay off.
//
// -exp accepts a comma-separated list. With -json, the E5 efficiency
// metrics (main table, join-kernel ablation, token-matching ablation,
// serial-vs-parallel scheduling, each with ns/op) — plus the E9
// persistence rows when e9 runs — are additionally written as a
// machine-readable artifact, so CI runs accumulate a perf trajectory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"trinit/internal/dataset"
	"trinit/internal/experiments"
)

// benchArtifact is the JSON shape written by -json.
type benchArtifact struct {
	Schema       string                    `json:"schema"`
	Scale        string                    `json:"scale"`
	Queries      int                       `json:"queries"`
	Seed         int64                     `json:"seed"`
	E5           []experiments.E5Row       `json:"e5"`
	E5Kernels    []experiments.E5KernelRow `json:"e5_kernels"`
	E5TokenMatch []experiments.E5TokenRow  `json:"e5_token_match"`
	// E5Parallel holds the serial-vs-parallel scheduler rows (ns/op and
	// speedup ratio per width) on the wide-rewrite workload.
	E5Parallel []experiments.E5ParallelRow `json:"e5_parallel"`
	// E5Block holds the block-vs-tuple join-execution rows (ns/op and
	// speedup ratio per kernel) on the wide-rewrite workload.
	E5Block []experiments.E5BlockRow `json:"e5_block"`
	// TokenMatchIndexScanRatio is baseline/resolved mean IndexScanned on
	// the token-pattern workload — the list-building reduction factor.
	TokenMatchIndexScanRatio float64 `json:"token_match_index_scan_ratio"`
	// Persist holds the E9 durability rows (snapshot write/load
	// wall-clock and bytes, delta-log throughput), present when e9 ran.
	Persist []experiments.E9PersistRow `json:"persist,omitempty"`
}

func main() {
	exp := flag.String("exp", "all", "experiments to run: all, or a comma list of e1..e9")
	scale := flag.String("scale", "small", "world scale: small, bench, or benchxN for an N-times bench world")
	queries := flag.Int("queries", 70, "workload size (paper: 70)")
	seed := flag.Int64("seed", 1, "world seed")
	jsonPath := flag.String("json", "", "write E5 metrics to this file as JSON (requires e5 to run)")
	flag.Parse()

	cfg := dataset.DefaultConfig()
	switch {
	case *scale == "small":
	case *scale == "bench":
		cfg = dataset.BenchConfig()
	case strings.HasPrefix(*scale, "benchx"):
		factor, err := strconv.Atoi(strings.TrimPrefix(*scale, "benchx"))
		if err != nil || factor < 1 {
			fmt.Fprintf(os.Stderr, "trinit-bench: bad -scale %q (want benchxN with N >= 1)\n", *scale)
			os.Exit(2)
		}
		cfg = dataset.BenchConfig().Scaled(factor)
	default:
		fmt.Fprintf(os.Stderr, "trinit-bench: unknown -scale %q (use small, bench, or benchxN)\n", *scale)
		os.Exit(2)
	}
	cfg.Seed = *seed

	selected := strings.Split(*exp, ",")
	want := func(name string) bool {
		for _, s := range selected {
			s = strings.TrimSpace(s)
			if s == "all" || strings.EqualFold(s, name) {
				return true
			}
		}
		return false
	}

	var w *dataset.World
	world := func() *dataset.World {
		if w == nil {
			start := time.Now()
			w = dataset.Generate(cfg)
			fmt.Printf("generated synthetic world (%d people, %d KG facts, %d docs) in %v\n\n",
				cfg.People, w.KGSize(), len(w.Docs()), time.Since(start).Round(time.Millisecond))
		}
		return w
	}

	ran := false
	var art *benchArtifact
	if want("e1") {
		ran = true
		fmt.Println(experiments.FormatE1(experiments.RunE1(world(), *queries, 10)))
	}
	if want("e2") {
		ran = true
		fmt.Println(experiments.FormatE2(experiments.RunE2(world()), 8))
	}
	if want("e3") {
		ran = true
		fmt.Println(experiments.FormatE3(experiments.RunE3()))
	}
	if want("e4") {
		ran = true
		fmt.Println(experiments.FormatE4(experiments.RunE4(world())))
	}
	if want("e5") {
		ran = true
		// E5 caps the workload at 20 queries; the artifact records the
		// effective size so runs stay comparable across -queries values.
		e5Queries := min(*queries, 20)
		e5 := experiments.RunE5(world(), e5Queries, nil)
		fmt.Println(experiments.FormatE5(e5))
		fmt.Println(experiments.FormatE5Depth(experiments.RunE5Depth(world(), e5Queries, nil)))
		kernels := experiments.RunE5Kernels(world(), e5Queries, 10)
		fmt.Println(experiments.FormatE5Kernels(kernels))
		tokens := experiments.RunE5TokenMatch(world(), e5Queries, 10)
		fmt.Println(experiments.FormatE5TokenMatch(tokens))
		parallel := experiments.RunE5Parallel(world(), e5Queries, 10, nil)
		fmt.Println(experiments.FormatE5Parallel(parallel))
		blocks := experiments.RunE5Blocks(world(), e5Queries, 10)
		fmt.Println(experiments.FormatE5Blocks(blocks))
		art = &benchArtifact{
			Schema:                   "trinit-bench/e5/v6",
			Scale:                    *scale,
			Queries:                  e5Queries,
			Seed:                     *seed,
			E5:                       e5,
			E5Kernels:                kernels,
			E5TokenMatch:             tokens,
			E5Parallel:               parallel,
			E5Block:                  blocks,
			TokenMatchIndexScanRatio: experiments.TokenMatchIndexScanRatio(tokens),
		}
	}
	if want("e6") {
		ran = true
		fmt.Println(experiments.FormatE6(experiments.RunE6(world())))
	}
	if want("e7") {
		ran = true
		fmt.Println(experiments.FormatE7(experiments.RunE7(world(), min(*queries, 30))))
	}
	if want("e8") {
		ran = true
		fmt.Println(experiments.FormatE8(experiments.RunE8(world(), min(*queries, 30))))
	}
	if want("e9") {
		ran = true
		// The default sizes top out at 1M triples regardless of -scale:
		// the store is synthesised directly, not from the world generator,
		// and the 1M row backs the "snapshot loads in seconds" claim.
		rows, err := experiments.RunE9Persist(nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "trinit-bench: e9: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(experiments.FormatE9Persist(rows))
		if art != nil {
			art.Persist = rows
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "trinit-bench: unknown experiment %q (use all, or a comma list of e1..e9)\n", *exp)
		os.Exit(2)
	}
	if *jsonPath != "" {
		if art == nil {
			fmt.Fprintf(os.Stderr, "trinit-bench: -json requires e5 to run (got -exp %s); no artifact written\n", *exp)
			os.Exit(2)
		}
		data, err := json.MarshalIndent(art, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "trinit-bench: marshal %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "trinit-bench: write %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n\n", *jsonPath)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
