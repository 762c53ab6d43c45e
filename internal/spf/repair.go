package spf

// Helpers shared by the phases of the Ramalingam–Reps repair in batch.go:
// the node-mark epoch, the settled-order merge each phase finishes with,
// and the array swap that lets a State be repaired in place.

import "math"

// nextRepairEpoch advances the mark epoch, clearing the mark arrays on
// the (every ~2^31 repairs) wraparound so stale marks from a previous
// cycle can never collide with the current epoch on a long-lived
// workspace.
func (ws *Workspace) nextRepairEpoch() int32 {
	if ws.repEpoch == math.MaxInt32 {
		clear(ws.aMark)
		clear(ws.qMark)
		ws.repEpoch = 0
	}
	ws.repEpoch++
	return ws.repEpoch
}

// mergeOrder rebuilds the settled order after a repair: the old order
// minus the changed vertices (aMark == epoch) is still sorted by
// distance, as is chgSorted (settle order of the repair), so one merge
// pass restores invariant (2). Ties between changed and unchanged
// vertices may land either way; no consumer distinguishes them.
func (ws *Workspace) mergeOrder(epoch int32) {
	old := ws.order
	merged := ws.order2[:0]
	cs := ws.chgSorted
	ci := 0
	for _, v := range old {
		if ws.aMark[v] == epoch {
			continue // re-inserted from cs below, or dropped if now at Inf
		}
		dv := ws.dist[v]
		for ci < len(cs) && ws.dist[cs[ci]] <= dv {
			merged = append(merged, cs[ci])
			ci++
		}
		merged = append(merged, v)
	}
	merged = append(merged, cs[ci:]...)
	ws.order = merged
	ws.order2 = old[:0]
}

// repairSwapped runs a workspace repair directly on the snapshot's
// backing arrays by swapping them into the workspace for the duration —
// no copying; the arrays just trade owners (the merged order may come
// from the workspace's scratch, which then inherits the snapshot's old
// array).
func (s *State) repairSwapped(ws *Workspace, f func() bool) bool {
	ws.dist, s.Dist = s.Dist, ws.dist
	ws.order, s.Order = s.Order, ws.order
	ws.dest, s.Dest = s.Dest, ws.dest
	changed := f()
	ws.dist, s.Dist = s.Dist, ws.dist
	ws.order, s.Order = s.Order, ws.order
	ws.dest, s.Dest = s.Dest, ws.dest
	return changed
}
