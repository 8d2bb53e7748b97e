package core

// This file is the sparse tabulation scheduler: a structure-driven
// replacement for the dense FIFO fact worklist, used by the
// order-insensitive solvers (RunTD, and RunBU's instantiation pass). It
// reads the loop-nest structure index (ir.BuildStructIndex) and changes
// three things about how the same facts get processed:
//
//  1. Priority draining. Facts are batched per node and nodes are popped
//     from a priority heap ordered (innermost loop region first, then
//     reverse postorder), so a dirty loop saturates before its results
//     fan out — the dense FIFO instead interleaves loop iteration with
//     downstream propagation and re-touches the downstream nodes once per
//     wave.
//  2. Dirty-frontier stamps. Each node carries an input generation,
//     bumped when a fact lands on it; a pop whose generation didn't
//     advance past the last visit is skipped. Together with per-node
//     batching this means a node is visited once per batch of incoming
//     facts, not once per fact.
//  3. Region-level memoization. For a memoizable loop region (single
//     entry at the header, call-free, no entry/exit node inside — see
//     ir.Region), the closure of the whole region under a seed state at
//     its header is computed once with the chain-memo machinery and
//     cached per seed. Re-entering the region under a new calling context
//     replays the cached per-node image sets with batch inserts instead
//     of re-iterating the loop to a fixpoint.
//
// Everything observable is preserved: the fact closure is order
// independent, budgets and Steps stay in original-graph units (every
// inserted fact charges exactly one step, so Steps == NumPathEdges at
// completion, as on the dense paths), and a budget trip lands the
// path-edge counter on exactly MaxPathEdges+1 like both dense views. The
// hybrid engines (swift, swift-async) never run sparse: their trigger
// decisions sample EntrySeen mid-run, where fact pop order is observable —
// the same constraint that pins them to the raw view (see DESIGN.md §13).

import (
	"cmp"

	"swift/internal/ir"
)

// SparseStats reports the sparse scheduler's per-run structure telemetry.
// It is observational only: it is excluded from EncodeTDResult, so encoded
// result tables stay byte-identical across scheduler choices.
type SparseStats struct {
	// Enabled reports whether the run used the sparse scheduler.
	Enabled bool
	// Regions, MaxDepth and MemoRegions describe the structure index:
	// loop-region count, deepest nesting, and regions eligible for
	// region-level memoization.
	Regions     int
	MaxDepth    int
	MemoRegions int
	// Pops counts node activations popped from the priority worklist. The
	// dense solver pops once per fact instead, so the dense equivalent is
	// Steps (== NumPathEdges at completion); Pops/Steps is the batching
	// win.
	Pops int
	// StalePops counts pops skipped because the node's input generation
	// did not advance since its last visit.
	StalePops int
	// ReplayFacts counts facts installed by region replays without ever
	// being scheduled — the nodes the dirty frontier skipped.
	ReplayFacts int
	// RegionHits/RegionMisses/RegionFallbacks count region-closure memo
	// lookups: hits replayed a cached image, misses computed one, and
	// fallbacks reverted to generic propagation (closure larger than
	// maxRegionClosureFacts).
	RegionHits      int
	RegionMisses    int
	RegionFallbacks int
}

// sparseNodeBits is the width of the node-ID field in a heap key; nodes,
// and RPO positions, must fit in it.
const sparseNodeBits = 22

// maxRegionClosureFacts caps the fact count of one region-closure
// computation. The closure runs outside the path-edge budget (its facts
// are only charged when a replay installs them), so a pathological
// state-space blowup inside a single region must not be able to run away:
// past the cap the solver falls back to generic scheduled propagation,
// which charges the budget fact by fact exactly like the dense solver.
const maxRegionClosureFacts = 1 << 20

// sparseState is the scheduler state of one sparse run.
type sparseState[S cmp.Ordered] struct {
	idx *ir.StructIndex
	// key packs each node's heap priority and identity:
	// (maxDepth-depth) << 44 | rpo << 22 | nodeID, popped min-first.
	key []int64
	// pend holds per-node pending facts in arrival order; gen/done are the
	// dirty-frontier input-generation stamps; inq dedupes heap entries.
	pend      [][]pathPair[S]
	gen, done []uint32
	inq       []bool
	heap      []int64
	free      [][]pathPair[S]
	rmeta     []*regionMeta[S]
	stats     *SparseStats
}

// regionMeta is the solver-side view of one memoizable region: member
// positions, exit edges grouped by source node, and the per-seed closure
// memo.
type regionMeta[S cmp.Ordered] struct {
	r       *ir.Region
	pos     map[int]int32
	exitsAt map[int][]*ir.SuperEdge
	// memo maps a header seed state to an index into images, or -1 when
	// the closure overflowed and the seed is pinned to the fallback path.
	memo   map[S]int32
	images []regionImage[S]
}

// regionImage is one cached region closure: for every original node the
// region touches (view members and chain interiors), the sorted state set
// reachable inside the region from the seed. nodes is sorted by ID.
type regionImage[S cmp.Ordered] struct {
	nodes []int32
	sets  []sortedSet[S]
}

// newSparseState builds scheduler state for one run over the compressed
// view's index, or returns nil when the program exceeds the key packing
// limits (the run then stays dense; the limits are program properties, so
// the choice is deterministic). The dense test path forces this fallback.
func newSparseState[S cmp.Ordered](idx *ir.StructIndex, config Config, stats *SparseStats) *sparseState[S] {
	n := idx.View.CFG.NodeCount
	if config.solver == pathDense || n >= 1<<sparseNodeBits || idx.MaxDepth >= 1<<15 {
		return nil
	}
	sp := &sparseState[S]{
		idx:   idx,
		key:   make([]int64, n),
		pend:  make([][]pathPair[S], n),
		gen:   make([]uint32, n),
		done:  make([]uint32, n),
		inq:   make([]bool, n),
		rmeta: make([]*regionMeta[S], len(idx.Regions)),
		stats: stats,
	}
	maxd := int64(idx.MaxDepth)
	for i := 0; i < n; i++ {
		rpo := int64(idx.RPO[i])
		if rpo < 0 {
			sp.key[i] = -1 // chain interior: never scheduled
			continue
		}
		d := int64(idx.Depth[i])
		sp.key[i] = (maxd-d)<<44 | rpo<<sparseNodeBits | int64(i)
	}
	stats.Enabled = true
	stats.Regions = len(idx.Regions)
	stats.MaxDepth = idx.MaxDepth
	stats.MemoRegions = idx.MemoizableRegions
	return sp
}

// enqueue records a newly inserted fact for its node and schedules the
// node if it is not already queued.
func (sp *sparseState[S]) enqueue(node int, p pathPair[S]) {
	buf := sp.pend[node]
	if buf == nil {
		if k := len(sp.free); k > 0 {
			buf = sp.free[k-1]
			sp.free = sp.free[:k-1]
		}
	}
	sp.pend[node] = append(buf, p)
	sp.gen[node]++
	if !sp.inq[node] {
		sp.inq[node] = true
		sp.heapPush(sp.key[node])
	}
}

func (sp *sparseState[S]) heapPush(k int64) {
	h := append(sp.heap, k)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	sp.heap = h
}

func (sp *sparseState[S]) heapPop() int64 {
	h := sp.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(h) && h[l] < h[m] {
			m = l
		}
		if r < len(h) && h[r] < h[m] {
			m = r
		}
		if m == i {
			break
		}
		h[m], h[i] = h[i], h[m]
		i = m
	}
	sp.heap = h
	return top
}

// putBuf recycles a drained pending buffer (elements already zeroed).
func (sp *sparseState[S]) putBuf(buf []pathPair[S]) {
	if cap(buf) == 0 || cap(buf) > maxRetainedWork || len(sp.free) >= 64 {
		return
	}
	sp.free = append(sp.free, buf[:0])
}

// regionMeta returns the solver-side metadata of a memoizable region,
// building it on first use.
func (sp *sparseState[S]) regionMeta(rid int) *regionMeta[S] {
	rm := sp.rmeta[rid]
	if rm != nil {
		return rm
	}
	r := sp.idx.Regions[rid]
	rm = &regionMeta[S]{
		r:       r,
		pos:     make(map[int]int32, len(r.ViewNodes)),
		exitsAt: map[int][]*ir.SuperEdge{},
		memo:    map[S]int32{},
	}
	for i, n := range r.ViewNodes {
		rm.pos[n] = int32(i)
	}
	for _, se := range r.Exits {
		rm.exitsAt[se.From.ID] = append(rm.exitsAt[se.From.ID], se)
	}
	sp.rmeta[rid] = rm
	return rm
}

// runSparse drains the priority worklist to a fixpoint. It is the sparse
// counterpart of run; the per-fact processing it delegates to is the same
// step logic the dense path uses, so the resulting fact closure, summary
// table, entry multisets and counters are identical.
func (t *tdSolver[S, R, P]) runSparse() error {
	sp := t.sp
	for len(sp.heap) > 0 {
		node := int(sp.heapPop() & (1<<sparseNodeBits - 1))
		sp.inq[node] = false
		g := sp.gen[node]
		if g == sp.done[node] {
			sp.stats.StalePops++
			continue
		}
		pend := sp.pend[node]
		sp.pend[node] = nil
		sp.stats.Pops++
		if err := t.dl.check(); err != nil {
			return err
		}
		err := t.stepSparseBatch(node, pend)
		sp.putBuf(pend)
		sp.done[node] = g
		if err != nil {
			return err
		}
	}
	return nil
}

// stepSparseBatch processes one node's pending facts in arrival order.
// Facts that arrive at this node while the batch runs (self-loops,
// immediate summaries) go to a fresh pending buffer and reschedule the
// node; the generation snapshot in runSparse keeps them unprocessed here.
func (t *tdSolver[S, R, P]) stepSparseBatch(node int, pend []pathPair[S]) error {
	n := t.cfg.AllNodes[node]
	pc := t.cfgOf[n.Proc]
	isExit := n.ID == pc.Exit.ID
	var rm *regionMeta[S]
	if rid := t.sp.idx.MemoHeader[node]; rid >= 0 {
		rm = t.sp.regionMeta(int(rid))
	}
	for i := range pend {
		p := pend[i]
		pend[i] = pathPair[S]{}
		if isExit {
			if err := t.recordSummary(n.Proc, p.in, p.out); err != nil {
				return err
			}
		}
		if rm != nil {
			if err := t.regionStep(rm, p.in, p.out); err != nil {
				return err
			}
			continue
		}
		for _, se := range t.view.Out[node] {
			if se.IsCall() {
				if err := t.handleCall(se, p.in, p.out); err != nil {
					return err
				}
				continue
			}
			if err := t.traverse(se, p.in, p.out); err != nil {
				return err
			}
		}
	}
	return nil
}

// regionStep handles a fact arriving at the header of a memoizable region:
// the region's closure under the seed is replayed wholesale instead of
// scheduling its nodes. In-region edges never run here — the image already
// contains their contribution — and exit edges fire exactly once per state
// that is new at their source under this context (the seed itself, plus
// whatever the replay adds), which is precisely when the dense solver's
// per-fact step would have fired them.
func (t *tdSolver[S, R, P]) regionStep(rm *regionMeta[S], in, seed S) error {
	img, ok, err := t.regionImage(rm, seed)
	if err != nil {
		return err
	}
	if !ok {
		// Closure overflow: generic propagation for this fact. Member
		// nodes then schedule normally; budgets charge fact by fact.
		t.sp.stats.RegionFallbacks++
		for _, se := range t.view.Out[rm.r.Header] {
			if se.IsCall() {
				if err := t.handleCall(se, in, seed); err != nil {
					return err
				}
				continue
			}
			if err := t.traverse(se, in, seed); err != nil {
				return err
			}
		}
		return nil
	}
	header := rm.r.Header
	var exitNodes []int
	var exitSets []sortedSet[S]
	for i, nd := range img.nodes {
		node := int(nd)
		added, insErr := t.insertFactSet(node, in, img.sets[i])
		t.sp.stats.ReplayFacts += len(added)
		if len(rm.exitsAt[node]) > 0 && (len(added) > 0 || node == header) {
			// Capture the states to push through this node's exit edges:
			// the newly added ones, plus the seed at the header (it was
			// inserted by the propagate that scheduled this step, so no
			// earlier replay covered it). added aliases addbuf and is in
			// descending order (mergeAppend merges backwards) — rebuild it
			// ascending in a copy that survives addbuf reuse.
			out := make(sortedSet[S], 0, len(added)+1)
			for x := len(added) - 1; x >= 0; x-- {
				out = append(out, added[x])
			}
			if node == header {
				out, _ = out.insert(seed)
			}
			exitNodes = append(exitNodes, node)
			exitSets = append(exitSets, out)
		}
		if insErr != nil {
			return insErr
		}
		if err := t.dl.check(); err != nil {
			return err
		}
	}
	for j, node := range exitNodes {
		for _, se := range rm.exitsAt[node] {
			if se.IsCall() {
				for _, s := range exitSets[j] {
					if err := t.handleCall(se, in, s); err != nil {
						return err
					}
				}
				continue
			}
			for _, s := range exitSets[j] {
				if err := t.traverse(se, in, s); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// regionImage looks up or computes the closure image of a seed at the
// region header. ok is false when the seed is pinned to the fallback path.
func (t *tdSolver[S, R, P]) regionImage(rm *regionMeta[S], seed S) (*regionImage[S], bool, error) {
	if k, hit := rm.memo[seed]; hit {
		if k < 0 {
			return nil, false, nil
		}
		t.sp.stats.RegionHits++
		return &rm.images[k], true, nil
	}
	t.sp.stats.RegionMisses++
	img, ok, err := t.computeRegionImage(rm, seed)
	if err != nil {
		return nil, false, err
	}
	if !ok {
		rm.memo[seed] = -1
		return nil, false, nil
	}
	rm.images = append(rm.images, *img)
	rm.memo[seed] = int32(len(rm.images) - 1)
	return &rm.images[len(rm.images)-1], true, nil
}

// computeRegionImage runs the region-local fixpoint: starting from the
// seed at the header, push states through the region's internal superedges
// (chain memos supply the per-position sets) until nothing new appears.
// The sweep visits member nodes in RPO order, so the client's Trans calls
// — and hence any interning it performs — happen in a deterministic order;
// the resulting image is the unique closure regardless. Exit edges are
// deliberately not walked: replays fire them per new state.
func (t *tdSolver[S, R, P]) computeRegionImage(rm *regionMeta[S], seed S) (*regionImage[S], bool, error) {
	r := rm.r
	acc := make([]sortedSet[S], len(r.ViewNodes))
	frontier := make([]sortedSet[S], len(r.ViewNodes))
	intAcc := map[int]sortedSet[S]{}
	hp := rm.pos[r.Header]
	acc[hp] = sortedSet[S]{seed}
	frontier[hp] = sortedSet[S]{seed}
	total := 1
	var rev sortedSet[S]
	for {
		dirty := false
		for i, nodeID := range r.ViewNodes {
			f := frontier[i]
			if len(f) == 0 {
				continue
			}
			dirty = true
			frontier[i] = nil
			for _, se := range t.view.Out[nodeID] {
				tp, inRegion := rm.pos[se.To.ID]
				if !inRegion || se.IsCall() {
					continue // exit edges and calls are replay business
				}
				for _, s := range f {
					m, k := t.chainEntry(se, s)
					rows := int32(len(se.Interior) + 1)
					off, lrow := m.starts[k], k*rows
					for wi, w := range se.Interior {
						set := m.states[off : off+m.lens[lrow+int32(wi)]]
						off += m.lens[lrow+int32(wi)]
						merged, added := mergeAppend(intAcc[w.ID], set, t.addbuf)
						t.addbuf = added
						if len(added) > 0 {
							intAcc[w.ID] = merged
							total += len(added)
						}
					}
					final := m.states[off : off+m.lens[lrow+rows-1]]
					merged, added := mergeAppend(acc[tp], final, t.addbuf)
					t.addbuf = added
					if len(added) > 0 {
						acc[tp] = merged
						total += len(added)
						// added is in descending order (mergeAppend merges
						// backwards); reverse it before extending the
						// frontier.
						rev = rev[:0]
						for x := len(added) - 1; x >= 0; x-- {
							rev = append(rev, added[x])
						}
						if len(frontier[tp]) == 0 {
							// union would alias the reused rev buffer here.
							frontier[tp] = append(sortedSet[S]{}, rev...)
						} else {
							frontier[tp] = frontier[tp].union(rev)
						}
					}
				}
			}
			if total > maxRegionClosureFacts {
				return nil, false, nil
			}
			if err := t.dl.check(); err != nil {
				return nil, false, err
			}
		}
		if !dirty {
			break
		}
	}
	img := &regionImage[S]{}
	for i, nodeID := range r.ViewNodes {
		if len(acc[i]) > 0 {
			img.nodes = append(img.nodes, int32(nodeID))
			img.sets = append(img.sets, acc[i])
		}
	}
	for w, set := range intAcc {
		img.nodes = append(img.nodes, int32(w))
		img.sets = append(img.sets, set)
	}
	sortImageByNode(img)
	return img, true, nil
}

// sortImageByNode sorts the parallel image arrays by node ID (insertion
// order of the interior entries comes from map iteration and must not leak
// into replay order).
func sortImageByNode[S cmp.Ordered](img *regionImage[S]) {
	// Simple insertion sort: images are small and almost sorted (view
	// members arrive in RPO order, interiors follow).
	for i := 1; i < len(img.nodes); i++ {
		for j := i; j > 0 && img.nodes[j-1] > img.nodes[j]; j-- {
			img.nodes[j-1], img.nodes[j] = img.nodes[j], img.nodes[j-1]
			img.sets[j-1], img.sets[j] = img.sets[j], img.sets[j-1]
		}
	}
}
