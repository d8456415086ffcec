package topk

// This file implements the block-at-a-time join kernel, the default
// execution strategy when hash joins are enabled (Options.NoBlockJoin
// reverts to the tuple-at-a-time kernel in topk.go).
//
// The in-flight join frontier is a batch of prefix bindings in columnar
// form: one []rdf.TermID column per variable slot of the rewrite's
// varPlan plus a parallel running-probability column. Each join depth
// extends the whole block in one pass — probing the PR 2 hash buckets
// per prefix, evaluating the score-bound arithmetic branch-free over the
// candidate list (score.BoundedExtend) and appending surviving
// (prefix × candidate) rows into a reusable output block. Only rows that
// survive to full depth and clear the shared top-k bound are projected
// back into the map-based Answer representation, through the same
// recordBinding the tuple kernel uses.
//
// Enumeration-order identity: output rows are appended in (input row,
// candidate) order and a full output block is flushed — extended
// depth-first through all remaining depths — before later input rows are
// processed. By induction complete bindings materialise in exactly the
// tuple kernel's depth-first order, so the canonical sequence numbers
// that break score ties are assigned in the same relative order and the
// two kernels rank identically. (In incremental mode the block kernel
// may prune with a slightly staler threshold — the bound is refreshed at
// block boundaries rather than per tuple — which can only prune *less*;
// anything either kernel prunes is strictly below the final k-th score,
// so rankings stay byte-identical.)

import (
	"trinit/internal/faultinject"
	"trinit/internal/rdf"
	"trinit/internal/score"
	"trinit/internal/store"
)

// maxBlockRows caps the rows of one frontier block. Full blocks are
// flushed — extended through the remaining depths — before enumeration
// continues, bounding memory at O(depth × maxBlockRows × slots) while
// preserving depth-first enumeration order.
const maxBlockRows = 1024

// joinBlock is one frontier of partially-joined prefixes in columnar
// form. slots[s][row] is the binding of variable slot s (rdf.NoTerm =
// unbound), acc[row] the running probability of the prefix, and
// trip[d][row] / prob[d][row] the triple chosen at join depth d and its
// emission probability — kept per depth so a completed row can fill the
// answer's per-pattern derivation without re-deriving it.
type joinBlock struct {
	slots [][]rdf.TermID
	acc   []float64
	trip  [][]store.ID
	prob  [][]float64
	rows  int
}

// reset shapes the block for a rewrite with nslots variable slots and
// ndepth join depths, keeping the column buffers for reuse.
func (b *joinBlock) reset(nslots, ndepth int) {
	for len(b.slots) < nslots {
		b.slots = append(b.slots, nil)
	}
	b.slots = b.slots[:nslots]
	for len(b.trip) < ndepth {
		b.trip = append(b.trip, nil)
	}
	b.trip = b.trip[:ndepth]
	for len(b.prob) < ndepth {
		b.prob = append(b.prob, nil)
	}
	b.prob = b.prob[:ndepth]
	b.resetRows()
}

// resetRows empties the block, keeping column capacity.
func (b *joinBlock) resetRows() {
	for i := range b.slots {
		b.slots[i] = b.slots[i][:0]
	}
	for i := range b.trip {
		b.trip[i] = b.trip[i][:0]
	}
	for i := range b.prob {
		b.prob[i] = b.prob[i][:0]
	}
	b.acc = b.acc[:0]
	b.rows = 0
}

// blockJoin runs the block-at-a-time kernel over the prepared join env:
// it seeds the depth-0 frontier with the single all-unbound prefix and
// extends it depth by depth. All blocks and accumulator columns live in
// the run's scratch and are reused across rewrites.
func (r *run) blockJoin(e *joinEnv) {
	sc := &r.sc
	n := e.n
	for len(sc.blocks) < n+1 {
		sc.blocks = append(sc.blocks, &joinBlock{})
	}
	for len(sc.accBufs) < n {
		sc.accBufs = append(sc.accBufs, nil)
	}
	nslots := len(e.vp.names)
	// Deeper blocks are shaped lazily, at blockExtend entry: most
	// rewrites never fill more than a couple of frontiers, and resetting
	// every depth upfront showed up on small-join profiles.
	seed := sc.blocks[0]
	seed.reset(nslots, n)
	for s := 0; s < nslots; s++ {
		seed.slots[s] = append(seed.slots[s], rdf.NoTerm)
	}
	seed.acc = append(seed.acc, 1)
	seed.rows = 1
	r.blockExtend(e, 0)
}

// blockExtend extends the depth-d frontier block by the d-th pattern of
// the join order, writing surviving rows into the depth-d+1 block and
// flushing it — recursing through the remaining depths — whenever it
// fills. At full depth the block is materialised into answers.
func (r *run) blockExtend(e *joinEnv, d int) {
	if r.canceled || r.exhausted {
		return
	}
	if d == e.n {
		r.blockMaterialise(e)
		return
	}
	sc := &r.sc
	in := sc.blocks[d]
	out := sc.blocks[d+1]
	out.reset(len(e.vp.names), e.n)
	pi := e.order[d]
	pl := e.lists[pi]
	slots := e.vp.pats[pi]
	nslots := len(e.vp.names)
	var aliveList []bool
	if e.alive != nil {
		aliveList = e.alive[pi]
	}
	incremental := r.opts.Mode == Incremental
	// thLimit is the block-level score bound: 0 in exhaustive mode (a
	// non-negative bound never goes below it, so BoundedExtend scans the
	// full candidate list), the pruneLimit of the shared top-k threshold
	// in incremental mode. It is refreshed at block boundaries — a flush
	// may have recorded answers that tightened it — not per tuple, so it
	// is only ever staler (never tighter) than the tuple kernel's bound.
	var thLimit float64
	if incremental {
		thLimit = pruneLimit(e.state.threshold())
	}

	// flush extends the filled output block through the remaining
	// depths, then empties it for the next batch of rows. A whole
	// block's worth of rows is charged against the cancellation poll
	// interval in one step: block boundaries are the kernel's
	// cancellation points. After the recursion the channel is polled
	// again unconditionally — materialisation may have run emit
	// callbacks (streaming consumers cancel from inside them), and a
	// trailing flush is the last work of a rewrite, so the cancel must
	// not wait out the tick budget.
	flush := func() bool {
		e.m.BlocksEmitted++
		faultinject.Fire(faultinject.SiteBlockFlush, "")
		if r.pollCancelEvery(out.rows) {
			return false
		}
		r.blockExtend(e, d+1)
		if r.pollCancel() {
			return false
		}
		out.resetRows()
		if incremental {
			thLimit = pruneLimit(e.state.threshold())
		}
		return true
	}

	// Probe memoisation: consecutive rows of a depth-first frontier
	// often agree on the pattern's bound slots, so the candidate bucket
	// is re-derived (and HashProbes counted) only when the bound-slot
	// key changes from the previous row.
	var prevKey [3]rdf.TermID
	havePrev := false
	var cand []int32
	probe := false

	for row := 0; row < in.rows; row++ {
		acc := in.acc[row]
		weighted := e.rw.Weight * acc
		var key [3]rdf.TermID
		for vi := range slots {
			key[vi] = in.slots[slots[vi]][row]
		}
		if !havePrev || key != prevKey {
			prevKey, havePrev = key, true
			cand, probe = nil, false
			for vi := range slots {
				if t := key[vi]; t != rdf.NoTerm {
					bkt := pl.buckets[vi][t]
					if !probe || len(bkt) < len(cand) {
						cand, probe = bkt, true
					}
				}
			}
			if probe {
				e.m.HashProbes++
			}
		}
		if probe && len(cand) == 0 {
			continue
		}
		var scan []int32
		total := len(pl.matches)
		if probe {
			scan = cand
			total = len(cand)
		}
		// Branch-free score pass over the candidate list: one output
		// probability per candidate up to the bound cut.
		accBuf, consumed := score.BoundedExtend(pl.matches, scan, acc, weighted, e.suffix[d+1], thLimit, sc.accBufs[d][:0])
		sc.accBufs[d] = accBuf
		if consumed < total {
			// The cut point: every remaining candidate has lower
			// probability, so the whole tail is below the bound.
			e.m.PrunedBranches++
			e.m.BlockRowsFiltered += total - consumed
		}
		for j := 0; j < consumed; j++ {
			p := j
			if probe {
				p = int(cand[j])
			}
			if aliveList != nil && !aliveList[p] {
				continue
			}
			match := &pl.matches[p]
			e.m.SortedAccesses++
			e.m.JoinBranches++
			ok := true
			for bi, s := range slots {
				if cur := in.slots[s][row]; cur != rdf.NoTerm && cur != match.Bindings[bi].Term {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			orow := out.rows
			for s := 0; s < nslots; s++ {
				out.slots[s] = append(out.slots[s], in.slots[s][row])
			}
			for bi, s := range slots {
				out.slots[s][orow] = match.Bindings[bi].Term
			}
			for d2 := 0; d2 < d; d2++ {
				out.trip[d2] = append(out.trip[d2], in.trip[d2][row])
				out.prob[d2] = append(out.prob[d2], in.prob[d2][row])
			}
			out.trip[d] = append(out.trip[d], match.Triple)
			out.prob[d] = append(out.prob[d], match.Prob)
			out.acc = append(out.acc, accBuf[j])
			out.rows++
			if out.rows == maxBlockRows {
				if !flush() {
					return
				}
			}
		}
	}
	if out.rows > 0 {
		flush()
	}
}

// blockMaterialise projects the full-depth frontier back into answers:
// each row is gathered into the run's flat binding array, filtered, and
// handed to recordBinding — the same convergence point as the tuple
// kernel, so keys, scores and derivation identity are kernel-independent.
func (r *run) blockMaterialise(e *joinEnv) {
	sc := &r.sc
	b := sc.blocks[e.n]
	for row := 0; row < b.rows; row++ {
		for s := range sc.vals {
			sc.vals[s] = b.slots[s][row]
		}
		if !r.passFilters(e, sc.vals) {
			continue
		}
		for d := 0; d < e.n; d++ {
			sc.triples[e.order[d]] = b.trip[d][row]
			sc.probs[e.order[d]] = b.prob[d][row]
		}
		r.recordBinding(e, e.rw.Weight*b.acc[row], sc.vals, sc.triples, sc.probs)
	}
}
