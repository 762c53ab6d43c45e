package spf

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/topogen"
)

// repairOne applies one link change to the workspace as a batch of one,
// the form every single weight move or link flip takes.
func repairOne(ws *Workspace, g *graph.Graph, w []int32, li int, oldEff, newEff int64, mask *graph.Mask) bool {
	return ws.RepairBatch(g, w, []LinkChange{{Link: li, OldEff: oldEff, NewEff: newEff}}, mask)
}

// TestRepairEpochWraparound: when the mark epoch wraps after ~2^31
// repairs, stale marks from earlier cycles must not collide with the
// fresh epoch (the arrays are cleared on wrap).
func TestRepairEpochWraparound(t *testing.T) {
	g := diamond()
	w := equalWeights(g, 1)
	w[2] = 3 // 0->2 expensive: 0->1->3 is node 0's unique shortest path
	ws := NewWorkspace(g)
	fresh := NewWorkspace(g)
	ws.Run(g, w, 3, nil)

	// Poison the mark arrays with values the post-wrap epochs will take.
	ws.repEpoch = math.MaxInt32
	for i := range ws.aMark {
		ws.aMark[i] = 1
		ws.qMark[i] = 2
	}
	for step, newW := range []int32{7, 1, 12} {
		oldW := w[0]
		w[0] = newW
		repairOne(ws, g, w, 0, int64(oldW), int64(newW), nil)
		fresh.Run(g, w, 3, nil)
		requireSameSPF(t, "wrap step", g, w, nil, ws, fresh)
		if step == 0 && ws.repEpoch != 1 {
			t.Fatalf("epoch after wrap = %d, want 1", ws.repEpoch)
		}
	}
}

func TestRepairWeightDiamond(t *testing.T) {
	g := diamond()
	w := equalWeights(g, 1)
	w[2] = 3 // 0->2 expensive: the upper path is node 0's unique shortest
	ws := NewWorkspace(g)
	fresh := NewWorkspace(g)
	ws.Run(g, w, 3, nil)

	// Increase the unique-path link 0->1 past the lower alternative:
	// node 0's distance grows from 2 to 4 (via 0->2).
	w[0] = 5
	if !repairOne(ws, g, w, 0, 1, 5, nil) {
		t.Fatal("increase on a unique-path link reported no change")
	}
	fresh.Run(g, w, 3, nil)
	requireSameSPF(t, "increase", g, w, nil, ws, fresh)

	// Decrease it back: restores the original distances.
	w[0] = 1
	if !repairOne(ws, g, w, 0, 5, 1, nil) {
		t.Fatal("decrease back reported no change")
	}
	fresh.Run(g, w, 3, nil)
	requireSameSPF(t, "decrease", g, w, nil, ws, fresh)

	// On the unit-weight diamond, increasing one of node 0's two tight
	// out-links is a membership-only change: distances provably hold.
	// First rejoin the lower path at a distance tie — also membership
	// only, the decrease side of the same coin.
	w[2] = 1
	if repairOne(ws, g, w, 2, 3, 1, nil) {
		t.Fatal("rejoining at a distance tie must not change distances")
	}
	fresh.Run(g, w, 3, nil)
	requireSameSPF(t, "tie restore", g, w, nil, ws, fresh)
	w[0] = 5
	if repairOne(ws, g, w, 0, 1, 5, nil) {
		t.Fatal("increase with a surviving tight sibling must not change distances")
	}
	fresh.Run(g, w, 3, nil)
	requireSameSPF(t, "ecmp leave", g, w, nil, ws, fresh)
	w[0] = 1

	// A reverse-direction link (3->1) never lies toward destination 3:
	// changing it is a no-op that must not touch anything.
	ws.Run(g, w, 3, nil)
	w[5] = 17
	if repairOne(ws, g, w, 5, 1, 17, nil) {
		t.Fatal("reverse-link change reported a distance change")
	}
	fresh.Run(g, w, 3, nil)
	requireSameSPF(t, "noop", g, w, nil, ws, fresh)
}

func TestRepairLinkToggleDiamond(t *testing.T) {
	g := diamond()
	w := equalWeights(g, 1)
	m := graph.NewMask(g)
	ws := NewWorkspace(g)
	fresh := NewWorkspace(g)
	ws.Run(g, w, 3, m)

	// Fail 0->1: node 0 reroutes via the lower path at the same distance
	// (ECMP membership change only), so distances hold.
	m.FailLink(0)
	if repairOne(ws, g, w, 0, int64(w[0]), Inf, m) {
		t.Fatal("failing one of two equal paths must not change distances")
	}
	fresh.Run(g, w, 3, m)
	requireSameSPF(t, "down 0", g, w, m, ws, fresh)

	// Fail 0->2 too: node 0 becomes disconnected.
	m.FailLink(2)
	if !repairOne(ws, g, w, 2, int64(w[2]), Inf, m) {
		t.Fatal("disconnecting failure reported no change")
	}
	fresh.Run(g, w, 3, m)
	requireSameSPF(t, "down 2", g, w, m, ws, fresh)
	if ws.Reached(0) {
		t.Fatal("node 0 should be unreachable")
	}

	// Restore 0->1: node 0 reconnects through node 1.
	m.ReviveLink(0)
	if !repairOne(ws, g, w, 0, Inf, int64(w[0]), m) {
		t.Fatal("reconnecting restoration reported no change")
	}
	fresh.Run(g, w, 3, m)
	requireSameSPF(t, "up 0", g, w, m, ws, fresh)
}

// requireSameSPF asserts the repaired workspace and a freshly-run one
// agree bit-for-bit on everything downstream consumers read: distances,
// a valid settled order, per-link load contributions, and both delay
// DPs. Orders may permute distance ties, which no consumer observes.
func requireSameSPF(t *testing.T, step string, g *graph.Graph, w []int32, mask *graph.Mask, repaired, fresh *Workspace) {
	t.Helper()
	n := g.NumNodes()
	for v := 0; v < n; v++ {
		if repaired.dist[v] != fresh.dist[v] {
			t.Fatalf("%s: dist[%d] = %d, fresh %d", step, v, repaired.dist[v], fresh.dist[v])
		}
	}
	if len(repaired.order) != len(fresh.order) {
		t.Fatalf("%s: order length %d, fresh %d", step, len(repaired.order), len(fresh.order))
	}
	seen := make(map[int32]bool, len(repaired.order))
	for i, v := range repaired.order {
		if seen[v] {
			t.Fatalf("%s: node %d appears twice in repaired order", step, v)
		}
		seen[v] = true
		if repaired.dist[v] >= Inf {
			t.Fatalf("%s: unreachable node %d in repaired order", step, v)
		}
		if i > 0 && repaired.dist[v] < repaired.dist[repaired.order[i-1]] {
			t.Fatalf("%s: repaired order not ascending at position %d", step, i)
		}
	}
	for _, v := range fresh.order {
		if !seen[v] {
			t.Fatalf("%s: reachable node %d missing from repaired order", step, v)
		}
	}

	dem := make([]float64, n)
	for v := range dem {
		dem[v] = float64(v%7) + 0.25
	}
	lr := make([]float64, g.NumLinks())
	lf := make([]float64, g.NumLinks())
	dropR := repaired.AccumulateLoadsInto(g, w, dem, mask, lr)
	dropF := fresh.AccumulateLoadsInto(g, w, dem, mask, lf)
	if dropR != dropF {
		t.Fatalf("%s: dropped %g, fresh %g", step, dropR, dropF)
	}
	for li := range lr {
		if lr[li] != lf[li] {
			t.Fatalf("%s: load[%d] = %g, fresh %g", step, li, lr[li], lf[li])
		}
	}

	linkDelay := make([]float64, g.NumLinks())
	for li := range linkDelay {
		linkDelay[li] = float64(li%5) + 0.5
	}
	dr := make([]float64, n)
	df := make([]float64, n)
	repaired.WorstDelays(g, w, linkDelay, mask, dr)
	fresh.WorstDelays(g, w, linkDelay, mask, df)
	for v := range dr {
		if dr[v] != df[v] {
			t.Fatalf("%s: worst delay[%d] = %g, fresh %g", step, v, dr[v], df[v])
		}
	}
	repaired.MeanDelays(g, w, linkDelay, mask, dr)
	fresh.MeanDelays(g, w, linkDelay, mask, df)
	for v := range dr {
		if dr[v] != df[v] {
			t.Fatalf("%s: mean delay[%d] = %g, fresh %g", step, v, dr[v], df[v])
		}
	}
}

// TestQuickRepairMatchesRun maintains one destination's SPF through a
// random sequence of single-link weight moves (with immediate reverts
// mixed in) purely by one-entry batch repairs, comparing against a from-scratch run after
// every event.
func TestQuickRepairMatchesRun(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g, w := randGraph(r)
		dest := r.Intn(g.NumNodes())
		ws := NewWorkspace(g)
		fresh := NewWorkspace(g)
		ws.Run(g, w, dest, nil)
		for step := 0; step < 40; step++ {
			li := r.Intn(g.NumLinks())
			oldW := w[li]
			newW := int32(1 + r.Intn(20))
			w[li] = newW
			repairOne(ws, g, w, li, int64(oldW), int64(newW), nil)
			fresh.Run(g, w, dest, nil)
			for v := 0; v < g.NumNodes(); v++ {
				if ws.dist[v] != fresh.dist[v] {
					return false
				}
			}
			if r.Float64() < 0.4 {
				w[li] = oldW
				repairOne(ws, g, w, li, int64(newW), int64(oldW), nil)
				fresh.Run(g, w, dest, nil)
				for v := 0; v < g.NumNodes(); v++ {
					if ws.dist[v] != fresh.dist[v] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestQuickRepairTogglesMatchRun is the same with link up/down events
// against a mask, the selector's telemetry shape.
func TestQuickRepairTogglesMatchRun(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g, w := randGraph(r)
		dest := r.Intn(g.NumNodes())
		m := graph.NewMask(g)
		ws := NewWorkspace(g)
		fresh := NewWorkspace(g)
		ws.Run(g, w, dest, m)
		down := make([]bool, g.NumLinks())
		for step := 0; step < 40; step++ {
			li := r.Intn(g.NumLinks())
			if down[li] {
				m.ReviveLink(li)
				repairOne(ws, g, w, li, Inf, int64(w[li]), m)
			} else {
				m.FailLink(li)
				repairOne(ws, g, w, li, int64(w[li]), Inf, m)
			}
			down[li] = !down[li]
			fresh.Run(g, w, dest, m)
			for v := 0; v < g.NumNodes(); v++ {
				if ws.dist[v] != fresh.dist[v] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// testRepairEquivalence drives a set of per-destination snapshots
// through a randomized sequence of weight moves, link toggles and
// reverts, repairing every snapshot in place with one-entry
// State.RepairBatch calls and asserting full bit-identity with a
// from-scratch run after every event. This is the tentpole acceptance property on the
// paper's topologies.
func testRepairEquivalence(t *testing.T, g *graph.Graph, ndests, steps int, seed int64) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	n, m := g.NumNodes(), g.NumLinks()
	w := make([]int32, m)
	for i := range w {
		w[i] = int32(1 + r.Intn(20))
	}
	mask := graph.NewMask(g)
	ws := NewWorkspace(g)
	fresh := NewWorkspace(g)

	dests := r.Perm(n)[:ndests]
	states := make([]State, ndests)
	for i, d := range dests {
		ws.Run(g, w, d, mask)
		ws.Save(&states[i])
	}

	check := func(step string) {
		t.Helper()
		for i, d := range dests {
			fresh.Run(g, w, d, mask)
			ws.Restore(&states[i])
			requireSameSPF(t, step, g, w, mask, ws, fresh)
		}
	}

	repairAll := func(li int, oldEff, newEff int64) {
		one := []LinkChange{{Link: li, OldEff: oldEff, NewEff: newEff}}
		for i := range states {
			states[i].RepairBatch(ws, g, w, one, mask)
		}
	}

	down := make([]bool, m)
	for step := 0; step < steps; step++ {
		switch {
		case r.Float64() < 0.45:
			li := r.Intn(m)
			if down[li] {
				mask.ReviveLink(li)
				repairAll(li, Inf, int64(w[li]))
			} else {
				mask.FailLink(li)
				repairAll(li, int64(w[li]), Inf)
			}
			down[li] = !down[li]
			check("toggle")
		default:
			li := r.Intn(m)
			oldW := w[li]
			newW := int32(1 + r.Intn(20))
			w[li] = newW
			repairAll(li, int64(oldW), int64(newW))
			check("weight")
			if r.Float64() < 0.5 {
				w[li] = oldW
				repairAll(li, int64(newW), int64(oldW))
				check("revert")
			}
		}
	}
}

func repairTestTopo(t *testing.T, kind topogen.Kind, nodes, links int, seed int64) *graph.Graph {
	t.Helper()
	g, err := topogen.Generate(topogen.Spec{Kind: kind, Nodes: nodes, DirectedLinks: links}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestRepairEquivalenceRand8(t *testing.T) {
	g := repairTestTopo(t, topogen.RandKind, 8, 40, 1)
	testRepairEquivalence(t, g, 8, 150, 11)
}

func TestRepairEquivalenceISP16(t *testing.T) {
	g := repairTestTopo(t, topogen.ISPKind, 0, 0, 2)
	testRepairEquivalence(t, g, 8, 100, 12)
}

func TestRepairEquivalenceRandTopo100(t *testing.T) {
	steps := 60
	if testing.Short() {
		steps = 15
	}
	g := repairTestTopo(t, topogen.RandKind, 100, 500, 3)
	testRepairEquivalence(t, g, 5, steps, 13)
}

// TestStateRepairPreservesWorkspace: the in-place State repair must not
// disturb the workspace's own last-Run outputs — sessions interleave the
// two freely.
func TestStateRepairPreservesWorkspace(t *testing.T) {
	g := diamond()
	w := equalWeights(g, 1)
	ws := NewWorkspace(g)

	ws.Run(g, w, 3, nil)
	var st State
	ws.Save(&st)

	ws.Run(g, w, 0, nil) // workspace now holds destination 0
	wantDist := append([]int64(nil), ws.dist...)
	wantOrder := append([]int32(nil), ws.order...)

	// Increase 1->3, node 1's only tight out-link toward destination 3:
	// its distance moves from 1 to 3 (rerouting 1->0->2->3).
	w[4] = 6
	if !st.RepairBatch(ws, g, w, []LinkChange{{Link: 4, OldEff: 1, NewEff: 6}}, nil) {
		t.Fatal("repair reported no change")
	}
	for v := range wantDist {
		if ws.dist[v] != wantDist[v] {
			t.Fatalf("workspace dist[%d] clobbered: %d != %d", v, ws.dist[v], wantDist[v])
		}
	}
	if len(ws.order) != len(wantOrder) {
		t.Fatalf("workspace order clobbered")
	}
	for i := range wantOrder {
		if ws.order[i] != wantOrder[i] {
			t.Fatalf("workspace order clobbered at %d", i)
		}
	}
	if ws.dest != 0 {
		t.Fatalf("workspace dest clobbered: %d", ws.dest)
	}

	fresh := NewWorkspace(g)
	fresh.Run(g, w, 3, nil)
	ws.Restore(&st)
	requireSameSPF(t, "state repair", g, w, nil, ws, fresh)
}
