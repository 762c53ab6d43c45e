package routing

// Seeded partial load refresh: after a weight move, a link flip or a
// demand update, one (class, destination) pair's load contribution is
// brought up to date by touching only what moved, in place, instead of
// being re-accumulated over every link.
//
// A node's out-link shares are a function of three inputs: its own
// demand, the contributions on its in-links (summed in the fixed in-link
// adjacency order) and its DAG out-set. A node needs a new pull exactly
// when one of those inputs changes, so the refresh starts from seeds —
//
//   - nodes whose distance moved, and the tails of their in-links (whose
//     DAG membership reads the moved distance),
//   - the tails of the batch links (whose weight or aliveness changed),
//   - sources whose demand moved —
//
// and propagates from there. First it zeroes every link that left the
// DAG: such a link's head may sit anywhere in the new order, so it must
// read 0 before any pull. Only a link that was on the DAG holds a
// non-zero value, and only the in- and out-links of moved nodes and the
// batch links can have left it, so only those are visited (a demand
// update moves no DAG and visits none). Then it re-pulls the dirty nodes
// in descending new order (a DAG edge strictly decreases distance, so
// every tail is final before its head pulls). Any write that changes a bit
// marks the link's head dirty and records the link. A clean node's
// inputs are unchanged, so its old shares are exactly what a fresh
// pass would write; a dirty node's pull sees the same inputs in the
// same order as the fresh pass. The refreshed vector is therefore
// bit-identical to AccumulateLoadsInto over the new snapshot, and the
// recorded links are exactly the links whose contribution changed.
//
// The recorded writes double as the undo log: each entry keeps the old
// value, and Revert replays the log backwards. The dense demand path
// (which re-sums every link anyway and cannot be reverted) refreshes
// without a log.

import (
	"math"
	"slices"

	"repro/internal/spf"
)

// contribLog is one undo-log entry of an in-place contribution write:
// before it, destination t's contribution on link li was old, in the
// throughput class if thru is set and the delay class otherwise.
type contribLog struct {
	t, li int32
	old   float64
	thru  bool
}

// beginRefresh starts one (class, destination) refresh on the worker: a
// fresh mark epoch and empty seed and moved-node lists.
func (wk *sesWorker) beginRefresh() {
	if wk.epoch == math.MaxInt32 {
		clear(wk.seedMark)
		clear(wk.dirty)
		wk.epoch = 0
	}
	wk.epoch++
	wk.seeds, wk.moved = wk.seeds[:0], wk.moved[:0]
}

// seed adds node v to the refresh's seed set.
func (wk *sesWorker) seed(v int32) {
	if wk.seedMark[v] != wk.epoch {
		wk.seedMark[v] = wk.epoch
		wk.seeds = append(wk.seeds, v)
	}
}

// seedMoved seeds every node whose distance differs between old and
// cur, together with the tails of its in-links, and lists the moved
// nodes.
func (s *Session) seedMoved(wk *sesWorker, old, cur []int64) {
	g := s.e.g
	for v, d := range cur {
		if d == old[v] {
			continue
		}
		wk.moved = append(wk.moved, int32(v))
		wk.seed(int32(v))
		for _, li := range g.InLinks(v) {
			wk.seed(s.linkFrom[li])
		}
	}
}

// seedBatch seeds the tail of every link in the batch.
func (s *Session) seedBatch(wk *sesWorker, batch []spf.LinkChange) {
	for _, c := range batch {
		wk.seed(s.linkFrom[c.Link])
	}
}

// onDAG reports whether link li lies on the shortest-path DAG described
// by dist under weights w and the session's mask.
func (s *Session) onDAG(dist []int64, w []int32, li int32) bool {
	dv := dist[s.linkTo[li]]
	return dv < spf.Inf && dist[s.linkFrom[li]] == dv+int64(w[li]) && s.mask.LinkAlive(int(li))
}

// refreshLoads runs the seeded partial refresh of destination t's
// contribution in one class (thru selects the throughput class) from the
// worker's current seed set, against the destination's already updated
// snapshot (and, in the delay class, its patched DAG). batch is the link
// change that moved the worker's listed nodes (nil for a demand update,
// which moves no DAG). Every changed entry is appended to log unless log
// is nil.
func (s *Session) refreshLoads(wk *sesWorker, t int, thru bool, batch []spf.LinkChange, log *[]contribLog) {
	g, to := s.e.g, s.linkTo
	st, w, dem, contrib := &s.dDest[t].state, s.w.Delay, s.demD, s.dContrib[t]
	dc := &s.dDest[t]
	if thru {
		st, w, dem, contrib = &s.tStates[t], s.w.Throughput, s.demT, s.tContrib[t]
		dc = nil
	}
	dist := st.Dist
	// markDirty flags node v for a re-pull. Reachable dirty nodes are
	// counted in pending, and top tracks the largest distance among them,
	// so the pull scan can start there and stop once pending drains.
	dirty, ep := wk.dirty, wk.epoch
	pending, top := 0, int64(-1)
	markDirty := func(v int32) {
		if dirty[v] == ep {
			return
		}
		dirty[v] = ep
		if d := dist[v]; d < spf.Inf {
			pending++
			top = max(top, d)
		}
	}
	// set writes x to link li, logging the old value and marking the
	// link's head dirty.
	set := func(li int32, x float64) {
		if log != nil {
			*log = append(*log, contribLog{t: int32(t), li: li, old: contrib[li], thru: thru})
		}
		contrib[li] = x
		markDirty(to[li])
	}

	for _, u := range wk.seeds {
		markDirty(u)
	}
	// Before any pull, zero every link that left the DAG: its head may
	// pull before its tail. Only a link that was on the DAG holds a
	// non-zero value, so only links whose membership can have changed
	// are visited — the in- and out-links of moved nodes and the batch
	// links.
	zeroOff := func(li int32) {
		if math.Float64bits(contrib[li]) != 0 && !s.onDAG(dist, w, li) {
			set(li, 0)
		}
	}
	for _, x := range wk.moved {
		for _, li := range g.InLinks(int(x)) {
			zeroOff(li)
		}
		for _, li := range g.OutLinks(int(x)) {
			zeroOff(li)
		}
	}
	for _, c := range batch {
		zeroOff(int32(c.Link))
	}

	// Re-pull the dirty nodes in descending order, starting at the last
	// node no farther than the farthest dirty one (the order is sorted by
	// distance).
	order := st.Order
	lo, hi := 0, len(order)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if dist[order[mid]] <= top {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	// Demands are read one dirty node at a time, unless a quarter of the
	// nodes are seeds (a dense demand column): then one strided column
	// read is cheaper than as many scattered ones.
	var col []float64
	if 4*len(wk.seeds) > len(dist) {
		col = wk.demCol
		dem.Column(t, col)
	}
	skip, dagOut := s.skipNode, wk.dagOut
	for i := lo - 1; i >= 0 && pending > 0; i-- {
		v := order[i]
		if dirty[v] != ep {
			continue
		}
		pending--
		var f float64
		if int(v) != t && int(v) != skip {
			if col != nil {
				f = col[v]
			} else {
				f = dem.At(int(v), t)
			}
		}
		for _, li := range g.InLinks(int(v)) {
			f += contrib[li]
		}
		if f == 0 {
			// Every out-link ends at 0 (0/k on the DAG, 0 off it), so
			// skip the DAG out-set, as the fresh pass does.
			for _, li := range g.OutLinks(int(v)) {
				if math.Float64bits(contrib[li]) != 0 {
					set(li, 0)
				}
			}
			continue
		}
		var out []int32
		if dc != nil {
			out = dc.dagLinks[dc.dagOff[v]:dc.dagOff[v+1]]
		} else {
			k := 0
			for _, li := range g.OutLinks(int(v)) {
				if s.onDAG(dist, w, li) {
					dagOut[k] = li
					k++
				}
			}
			out = dagOut[:k]
		}
		if len(out) == 0 {
			continue // v is the destination
		}
		share := f / float64(len(out))
		for _, li := range out {
			if math.Float64bits(contrib[li]) != math.Float64bits(share) {
				set(li, share)
			}
		}
	}
}

// droppedDemand is destination t's throughput demand from sources that
// cannot reach it, summed in ascending source order like
// AccumulateLoadsInto.
func (s *Session) droppedDemand(t int) float64 {
	var dropped float64
	for v, d := range s.tStates[t].Dist {
		if d < spf.Inf || v == t || v == s.skipNode {
			continue
		}
		if x := s.demT.At(v, t); x != 0 {
			dropped += x
		}
	}
	return dropped
}

// buildDAG materializes the delay-class ECMP DAG out-adjacency of dc in
// out-link adjacency order — the exact link visit order of the
// membership-testing DP it replaces. With old == nil every node's
// out-set is computed; otherwise only the nodes in seeds (ascending) are,
// and every other node's out-set is copied from old. That patch is exact
// for the seeds of a refresh: a non-seed node's distance, its heads'
// distances and its out-links' weights and aliveness are all unchanged.
func (s *Session) buildDAG(dc, old *delayDest, seeds []int32) {
	n := s.e.g.NumNodes()
	dc.dagOff = slices.Grow(dc.dagOff[:0], n+1)[:n+1]
	dc.dagLinks = dc.dagLinks[:0]
	if old == nil {
		for u := 0; u < n; u++ {
			s.dagNode(dc, u)
		}
	} else {
		u := 0
		for _, v := range seeds {
			copyDAG(dc, old, u, int(v))
			s.dagNode(dc, int(v))
			u = int(v) + 1
		}
		copyDAG(dc, old, u, n)
	}
	dc.dagOff[n] = int32(len(dc.dagLinks))
}

// dagNode appends node u's on-DAG out-links to dc's adjacency.
func (s *Session) dagNode(dc *delayDest, u int) {
	dc.dagOff[u] = int32(len(dc.dagLinks))
	dist := dc.state.Dist
	for _, li := range s.e.g.OutLinks(u) {
		if s.onDAG(dist, s.w.Delay, li) {
			dc.dagLinks = append(dc.dagLinks, li)
		}
	}
}

// copyDAG appends the out-sets of nodes [lo, hi) from old's adjacency.
func copyDAG(dc, old *delayDest, lo, hi int) {
	if lo >= hi {
		return
	}
	shift := int32(len(dc.dagLinks)) - old.dagOff[lo]
	for u := lo; u < hi; u++ {
		dc.dagOff[u] = old.dagOff[u] + shift
	}
	dc.dagLinks = append(dc.dagLinks, old.dagLinks[old.dagOff[lo]:old.dagOff[hi]]...)
}
