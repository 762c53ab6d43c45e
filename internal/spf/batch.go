package spf

// Dynamic shortest-path repair in the style of Ramalingam–Reps: after a
// set of simultaneous link changes, update the cached reverse SPF of one
// destination by recomputing only the vertices whose distance actually
// changes, instead of re-running Dijkstra from scratch. A single weight
// move or link flip is a batch of one; an SRLG trip, a maintenance window
// or a batched weight move is a larger batch. Every change is described
// by its effective weights (LinkChange), so a weight move, a failure and
// a restoration go through the same code.
//
// Invariants the repair maintains — the same three every consumer of a
// Run's outputs relies on:
//
//  1. dist[v] is the exact shortest distance from v to the destination
//     over alive links under the current weights (Inf if unreachable).
//  2. order lists exactly the reachable vertices in ascending distance.
//     Equal-distance vertices may appear in any relative order: weights
//     are >= 1, so no shortest-path DAG edge connects a distance tie,
//     and every downstream pass (the pull-based load accumulation, the
//     delay DPs) is a function of the distances alone. A repaired order
//     therefore yields bit-identical loads and delays to a fresh Run's
//     order even though the two orders may permute ties differently.
//  3. DAG membership is derived, never stored: link (u,v) is on the DAG
//     iff dist[u] == w(u,v) + dist[v] and the link is alive. Repairing
//     distances repairs membership for free.
//
// The batch is decomposed through an intermediate "mid" state in which
// every changed link carries max(oldEff, newEff):
//
//   - Phase I (increases, including failures): going old -> mid only
//     raises weights, so distances can only grow, and only for vertices
//     all of whose shortest paths crossed a raised link. Links that were
//     not tight (dist[tail] != oldEff + dist[head]) carried no shortest
//     path and are ignored.
//     Phase A identifies the affected set with a min-heap keyed by OLD
//     distance, seeded with the tail of every tight raised link. A
//     popped candidate is affected iff it has no alive tight out-link to
//     an unaffected vertex; each newly affected vertex enqueues its tight
//     in-neighbors. Tight links strictly decrease distance, so candidates
//     pop in ascending old distance and every vertex's smaller-distance
//     tight successors have final membership when it is tested — the
//     property the one-pass test depends on. A raised link itself can
//     never pass the surviving-tight-out-link test (old distances obey
//     dist[tail] <= dist[head]+oldEff < dist[head]+midEff).
//     Phase B sets the affected distances to Inf, computes each affected
//     vertex's best candidate through unaffected neighbors, and runs a
//     Dijkstra restricted to the affected set. Vertices left at Inf are
//     the ones the batch disconnected.
//     Links whose weight decreased keep their OLD weight at mid (an
//     epoch-marked per-link override), and links coming back up stay
//     dead at mid (a second mark), which is what makes the mid state well
//     defined. A batch with no decrease and no restoration has no
//     overrides, and the phase skips the mark lookups.
//   - Phase II (decreases, including restorations): going mid -> new only
//     lowers weights, so the only distances that can improve are those
//     with a new shortest path through a lowered link. A multi-source
//     Dijkstra seeded at every tail whose candidate newEff + dist[head]
//     beats its distance propagates the improvement through in-links
//     under the true new weights and mask; visited vertices are exactly
//     those whose distance drops. Composite improvements — a tail whose
//     candidate drops further when another lowered link lowers its head —
//     propagate through the ordinary relaxation loop.
//
// Each phase finishes by merging the changed vertices (collected in
// settle order, i.e. ascending new distance) into the untouched remainder
// of the old order (mergeOrder) — O(n) with a tiny constant, against the
// O((n+m) log n) Dijkstra it replaces — so the invariants hold at the
// mid state and again at the final state. Distances are exact at every
// phase boundary; only order ties may permute, which no consumer
// observes. Callers fall back to a full Run only where no pre-change
// snapshot exists (session Init, demand rebases).

import (
	"math"

	"repro/internal/graph"
)

// LinkChange is one link of a batch event: the link's effective weight
// before and after, with Inf encoding "down". A link that failed has
// NewEff == Inf; a link that came back has OldEff == Inf; a weight move
// on an alive link has both finite. Each link may appear at most once
// per batch.
type LinkChange struct {
	Link           int
	OldEff, NewEff int64
}

// RepairBatch updates the workspace's current SPF state (the last Run,
// or a Restored snapshot) for a set of simultaneous link changes. w and
// mask must already reflect the new weights and topology. It reports
// whether any distance changed; when it returns false, distances and
// order are untouched (DAG membership may still have changed, which is
// derived state).
//
// A batch of one counts under the path it takes (increase, decrease, or
// noop when it cannot move a distance); a multi-link batch counts as
// batch.
func (ws *Workspace) RepairBatch(g *graph.Graph, w []int32, changes []LinkChange, mask *graph.Mask) bool {
	if g != ws.g {
		panic("spf: Workspace used with a graph other than the one it was created for")
	}
	m := met.Get()
	bep := ws.nextBatchEpoch()
	inc, dec, kept := false, false, 0
	for _, c := range changes {
		if c.OldEff == c.NewEff {
			continue
		}
		li := c.Link
		if c.NewEff > c.OldEff {
			if c.NewEff < Inf && !mask.LinkAlive(li) {
				continue // weight move on a dead link: effectively Inf both sides
			}
			inc = true
		} else {
			if !mask.LinkAlive(li) {
				continue // restored link whose endpoint is still down, or dead-link move
			}
			if c.OldEff >= Inf {
				ws.batchUpMark[li] = bep // newly up: dead at the mid state
			} else {
				ws.batchOld[li] = c.OldEff // decreased: old weight at the mid state
				ws.batchOldMark[li] = bep
			}
			dec = true
		}
		kept++
	}
	switch {
	case len(changes) > 1:
		ws.stats.Batch++
		if m != nil {
			m.repairBatch.Inc()
			m.batchLinks.Observe(float64(kept))
		}
	case kept == 0 || ws.dist[ws.lto[changes[0].Link]] >= Inf:
		// No effective change, or the link leads nowhere near this
		// destination (including a dead destination, all distances Inf).
		ws.stats.Noop++
		if m != nil {
			m.repairNoop.Inc()
		}
		return false
	case dec:
		ws.stats.Decrease++
		if m != nil {
			m.repairDecrease.Inc()
		}
	default:
		ws.stats.Increase++
		if m != nil {
			m.repairIncrease.Inc()
		}
	}
	if kept == 0 {
		return false
	}
	changed := false
	if inc {
		if ws.batchIncrease(g, w, changes, mask, bep, dec) {
			changed = true
			ws.stats.ChangedNodes += len(ws.affList)
			if m != nil {
				m.changedNodes.Observe(float64(len(ws.affList)))
			}
		}
	}
	if dec {
		if ws.batchDecrease(g, w, changes, mask) {
			changed = true
			ws.stats.ChangedNodes += len(ws.chgSorted)
			if m != nil {
				m.changedNodes.Observe(float64(len(ws.chgSorted)))
			}
		}
	}
	return changed
}

// midW is link lj's effective weight at the batch's mid state; over
// reports whether the batch set any per-link override.
func (ws *Workspace) midW(lj int32, w []int32, bep int32, over bool) int64 {
	if over && ws.batchOldMark[lj] == bep {
		return ws.batchOld[lj]
	}
	return int64(w[lj])
}

// midDead reports whether alive link lj is a restored link, dead at the
// batch's mid state.
func (ws *Workspace) midDead(lj int32, bep int32, over bool) bool {
	return over && ws.batchUpMark[lj] == bep
}

// batchIncrease moves the distances from the old state to the mid state
// (every increased or failed link at its raised weight) with one
// multi-seeded increase repair. Decreased links read their old weight
// and restored links stay dead, so only raises are in effect; over is
// false when the batch has neither, and the override marks go unread.
func (ws *Workspace) batchIncrease(g *graph.Graph, w []int32, changes []LinkChange, mask *graph.Mask, bep int32, over bool) bool {
	// Phase A: identify the affected set in ascending old-distance order,
	// seeded with the tail of every tight increased link.
	epoch := ws.nextRepairEpoch()
	ws.heap = ws.heap[:0]
	ws.affList = ws.affList[:0]
	for _, c := range changes {
		if c.NewEff <= c.OldEff || c.OldEff >= Inf {
			continue
		}
		if c.NewEff < Inf && !mask.LinkAlive(c.Link) {
			continue
		}
		tail, head := ws.lfrom[c.Link], ws.lto[c.Link]
		dv := ws.dist[head]
		if dv >= Inf || ws.dist[tail] != dv+c.OldEff {
			continue // the link was not tight: it carried no shortest path
		}
		if ws.qMark[tail] != epoch {
			ws.qMark[tail] = epoch
			ws.heapPush(heapEntry{ws.dist[tail], tail})
		}
	}
	for len(ws.heap) > 0 {
		e := ws.heapPop()
		x := e.node
		dx := ws.dist[x]
		hasAlt := false
		for _, lj := range g.OutLinks(int(x)) {
			if !mask.LinkAlive(int(lj)) || ws.midDead(lj, bep, over) {
				continue
			}
			z := ws.lto[lj]
			if ws.aMark[z] == epoch {
				continue
			}
			if dz := ws.dist[z]; dz < Inf && dx == dz+ws.midW(lj, w, bep, over) {
				hasAlt = true // a surviving tight out-link: distance holds
				break
			}
		}
		if hasAlt {
			continue
		}
		ws.aMark[x] = epoch
		ws.affList = append(ws.affList, x)
		for _, lj := range g.InLinks(int(x)) {
			if !mask.LinkAlive(int(lj)) || ws.midDead(lj, bep, over) {
				continue
			}
			y := ws.lfrom[lj]
			if ws.qMark[y] == epoch || ws.aMark[y] == epoch {
				continue
			}
			if dy := ws.dist[y]; dy < Inf && dy == dx+ws.midW(lj, w, bep, over) {
				ws.qMark[y] = epoch
				ws.heapPush(heapEntry{dy, y})
			}
		}
	}
	if len(ws.affList) == 0 {
		// Every seeded tail kept another tight out-link: ECMP membership
		// changes only, all distances intact.
		return false
	}

	// Phase B: recompute the affected set against the unaffected rim,
	// under mid weights and mid aliveness.
	for _, x := range ws.affList {
		ws.dist[x] = Inf
	}
	ws.heap = ws.heap[:0]
	for _, x := range ws.affList {
		best := Inf
		for _, lj := range g.OutLinks(int(x)) {
			if !mask.LinkAlive(int(lj)) || ws.midDead(lj, bep, over) {
				continue
			}
			dz := ws.dist[ws.lto[lj]] // affected neighbors sit at Inf and drop out
			if dz >= Inf {
				continue
			}
			if c := dz + ws.midW(lj, w, bep, over); c < best {
				best = c
			}
		}
		ws.cand[x] = best
		if best < Inf {
			ws.heapPush(heapEntry{best, x})
		}
	}
	ws.chgSorted = ws.chgSorted[:0]
	for len(ws.heap) > 0 {
		e := ws.heapPop()
		x := e.node
		if ws.dist[x] < Inf || e.dist != ws.cand[x] {
			continue // settled or stale
		}
		ws.dist[x] = e.dist
		ws.chgSorted = append(ws.chgSorted, x)
		for _, lj := range g.InLinks(int(x)) {
			if !mask.LinkAlive(int(lj)) || ws.midDead(lj, bep, over) {
				continue
			}
			y := ws.lfrom[lj]
			if ws.aMark[y] != epoch || ws.dist[y] < Inf {
				continue
			}
			if c := e.dist + ws.midW(lj, w, bep, over); c < ws.cand[y] {
				ws.cand[y] = c
				ws.heapPush(heapEntry{c, y})
			}
		}
	}
	// Affected vertices still at Inf were disconnected by the batch;
	// mergeOrder drops them from the settled order.
	ws.mergeOrder(epoch)
	return true
}

// batchDecrease moves the distances from the mid state to the new state
// with one multi-source seeded Dijkstra under the true new weights and
// mask: one seed per link whose new weight improves on its mid weight
// (weight decreases and restored links).
func (ws *Workspace) batchDecrease(g *graph.Graph, w []int32, changes []LinkChange, mask *graph.Mask) bool {
	epoch := ws.nextRepairEpoch()
	ws.heap = ws.heap[:0]
	ws.chgSorted = ws.chgSorted[:0]
	any := false
	for _, c := range changes {
		if c.NewEff >= c.OldEff || !mask.LinkAlive(c.Link) {
			continue
		}
		tail, head := ws.lfrom[c.Link], ws.lto[c.Link]
		dv := ws.dist[head]
		if dv >= Inf {
			continue
		}
		if nd := dv + c.NewEff; nd < ws.dist[tail] {
			ws.dist[tail] = nd
			ws.aMark[tail] = epoch
			ws.heapPush(heapEntry{nd, tail})
			any = true
		}
	}
	if !any {
		return false // at best distance ties: membership-only changes
	}
	for len(ws.heap) > 0 {
		e := ws.heapPop()
		if e.dist != ws.dist[e.node] {
			continue // stale entry
		}
		ws.chgSorted = append(ws.chgSorted, e.node) // settles in ascending new distance
		for _, lj := range g.InLinks(int(e.node)) {
			if !mask.LinkAlive(int(lj)) {
				continue
			}
			y := ws.lfrom[lj]
			if nd2 := e.dist + int64(w[lj]); nd2 < ws.dist[y] {
				ws.dist[y] = nd2
				ws.aMark[y] = epoch
				ws.heapPush(heapEntry{nd2, y})
			}
		}
	}
	ws.mergeOrder(epoch)
	return true
}

// nextBatchEpoch advances the per-link batch mark epoch, clearing the
// mark arrays on wraparound like nextRepairEpoch.
func (ws *Workspace) nextBatchEpoch() int32 {
	if ws.batchEpoch == math.MaxInt32 {
		clear(ws.batchOldMark)
		clear(ws.batchUpMark)
		ws.batchEpoch = 0
	}
	ws.batchEpoch++
	return ws.batchEpoch
}

// RepairBatch applies a set of simultaneous link changes to this
// snapshot in place, using ws for scratch, without the Restore/Save
// round trip; the workspace's own last-Run outputs are preserved. w and
// mask must already reflect the new weights and topology. Reports
// whether any distance changed.
func (s *State) RepairBatch(ws *Workspace, g *graph.Graph, w []int32, changes []LinkChange, mask *graph.Mask) bool {
	return s.repairSwapped(ws, func() bool {
		return ws.RepairBatch(g, w, changes, mask)
	})
}
