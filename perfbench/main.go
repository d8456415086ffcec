// Command perfbench is TriniT's end-to-end benchmark. It builds each
// workload's engine from a seeded synthetic world, drives the workload
// through the public API from one process, checks every answer, and prints
// the end-to-end metrics (or, with -trace 1, the per-layer metrics of a
// separate traced pass) as the last line of standard output:
//
//	go build -o perfbench . && ./perfbench --workload hot70 --seed 1 --seconds 10 --trace 0
//
// run.sh builds and runs it from the repository root. README.md records
// why each workload exists and what each metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"trinit/internal/dataset"
)

// Writer and probe parameters shared by every workload.
const (
	writeRate      = 10              // open-loop batches per second of reader CPU time
	probeBatches   = 300             // write-probe batches on read-only workloads
	matchCacheSize = 4096            // the engine default, recorded in the run record
	warmupLimit    = 2 * time.Second // cap on a read loop's warm-up pass
	setups         = 3               // set-up repetitions; setup_s is their median
)

// workload is one named traffic mix.
type workload struct {
	name string
	// scale multiplies the world's entity counts.
	scale int
	// queries returns the reader's query set in the seed's order.
	queries func(*dataset.World, *rand.Rand) []string
	// mixed holds the writer's facts out of the world, persists and
	// reopens the engine during set-up, and runs the writer beside the
	// reader (open loop) instead of after it as a probe. Without a writer beside it, every timed response is compared
	// with its exhaustive-mode reference ranking.
	mixed bool
	// batch is the number of facts per IngestFacts call; every is the
	// number of batches between checkpoints.
	batch, every int
}

var workloads = []workload{
	// The probe sends 300 batches of 25 facts, checkpointing every 20:
	// with 100 batches of 50, ingest_p90_ms rested on 10 samples and
	// spread by 0.25 across runs, and with 5 checkpoints a run the
	// wall-clock checkpoint_ms spread by 0.28.
	{name: "hot70", scale: 1, queries: hot70Queries, batch: 25, every: 20},
	{name: "longtail", scale: 2, queries: longtailQueries, batch: 25, every: 20},
	// A checkpoint every 10 batches gives checkpoint_ms about ten
	// samples a run.
	{name: "ingest_mixed", scale: 1, queries: hot70Queries, mixed: true, batch: 50, every: 10},
}

// heldOut is the number of facts the writer ingests, enough that no fact
// repeats within a run: held out of the world on the mixed workload, taken
// from a second world for the probe (see probeFacts).
func (w workload) heldOut(c *config) int {
	if !w.mixed {
		return probeBatches * w.batch
	}
	return (int(c.seconds*writeRate) + w.every) * w.batch
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// world is the generator config at scale 1 (BenchConfig; the
	// self-test uses the small DefaultConfig).
	world dataset.Config
	// setups is how many times set-up runs; setup_s is their median.
	setups int
	// scratch is the directory data files are written under.
	scratch string
}

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects a run's result and its run record.
type report struct {
	result
	record map[string]any
}

func (r *report) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func main() {
	var c config
	var traceFlag int
	flag.StringVar(&c.workload, "workload", "hot70", "workload: hot70, longtail or ingest_mixed")
	flag.Int64Var(&c.seed, "seed", 1, "seed of the query order, the ingest order and the traced pass")
	flag.Float64Var(&c.seconds, "seconds", 10, "measured duration of one run")
	flag.IntVar(&traceFlag, "trace", 0, "1 prints the per-layer metrics of a traced pass")
	scratch := flag.String("scratch", ".bench_build", "directory for temporary data files")
	flag.Parse()
	c.trace = traceFlag == 1
	c.world = dataset.BenchConfig()
	c.setups = setups

	dir, err := scratchDir(*scratch)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	c.scratch = dir
	rep, err := run(&c)
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rec, _ := json.Marshal(map[string]any{"run": rep.record})
	fmt.Println(string(rec))
	out, _ := json.Marshal(rep.result)
	fmt.Println(string(out))
}

// run executes one benchmark invocation.
func run(c *config) (*report, error) {
	var w workload
	for _, cand := range workloads {
		if cand.name == c.workload {
			w = cand
		}
	}
	if w.name == "" {
		return nil, fmt.Errorf("unknown workload %q", c.workload)
	}
	if c.trace {
		c.setups = 1
	}
	// This goroutine runs set-up, the reader and the traced pass; it stays
	// on one OS thread so the thread CPU clock measures its work.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	rep := &report{result: result{Metrics: map[string]metric{}}}
	rep.record = map[string]any{
		"workload":         w.name,
		"seed":             c.seed,
		"seconds":          c.seconds,
		"trace":            c.trace,
		"nproc":            runtime.NumCPU(),
		"gomaxprocs":       runtime.GOMAXPROCS(0),
		"go_version":       runtime.Version(),
		"world_scale":      w.scale,
		"world_people":     c.world.Scaled(w.scale).People,
		"match_cache_size": matchCacheSize,
		"setups":           c.setups,
	}
	v, setupS, setupWall, heapMB, err := setup(c, w)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer v.close()
	rep.record["triples"] = len(v.base)
	rep.record["held_out_facts"] = len(v.held)
	rep.record["distinct_queries"] = len(v.queries)

	if c.trace {
		err = traced(c, w, v, rep)
	} else {
		rep.set("setup_s", setupS, "s")
		rep.set("heap_mb", heapMB, "MB")
		rep.record["setup_wall_s"] = setupWall
		err = timed(c, w, v, rep)
	}
	if err != nil {
		return nil, err
	}
	if rep.Attempted < 1 {
		return nil, fmt.Errorf("no operation attempted")
	}
	rep.record["fail_ratio"] = float64(rep.Failed) / float64(rep.Attempted)
	rep.Correct = rep.Correct && rep.Failed == 0
	return rep, nil
}
