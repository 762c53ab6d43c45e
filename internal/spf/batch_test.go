package spf

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/topogen"
)

func TestRepairBatchDiamond(t *testing.T) {
	g := diamond()
	w := equalWeights(g, 1)
	m := graph.NewMask(g)
	ws := NewWorkspace(g)
	fresh := NewWorkspace(g)
	ws.Run(g, w, 3, m)

	// Fail both of node 0's out-links at once: node 0 disconnects in one
	// batch instead of two single repairs.
	m.FailLink(0)
	m.FailLink(2)
	if !ws.RepairBatch(g, w, []LinkChange{
		{Link: 0, OldEff: 1, NewEff: Inf},
		{Link: 2, OldEff: 1, NewEff: Inf},
	}, m) {
		t.Fatal("disconnecting batch reported no change")
	}
	fresh.Run(g, w, 3, m)
	requireSameSPF(t, "batch down", g, w, m, ws, fresh)
	if ws.Reached(0) {
		t.Fatal("node 0 should be unreachable")
	}

	// Restore both in one batch.
	m.ReviveLink(0)
	m.ReviveLink(2)
	if !ws.RepairBatch(g, w, []LinkChange{
		{Link: 0, OldEff: Inf, NewEff: 1},
		{Link: 2, OldEff: Inf, NewEff: 1},
	}, m) {
		t.Fatal("reconnecting batch reported no change")
	}
	fresh.Run(g, w, 3, m)
	requireSameSPF(t, "batch up", g, w, m, ws, fresh)

	// Raise both legs of the upper path.
	w[0] = 4
	w[4] = 7
	if !ws.RepairBatch(g, w, []LinkChange{
		{Link: 0, OldEff: 1, NewEff: 4},
		{Link: 4, OldEff: 1, NewEff: 7},
	}, m) {
		t.Fatal("raise batch reported no change")
	}
	fresh.Run(g, w, 3, m)
	requireSameSPF(t, "batch raise", g, w, m, ws, fresh)

	// Mixed batch: lower one upper leg while raising the lower path —
	// both phases of the mid-state decomposition fire in one call.
	w[0] = 2
	w[6] = 5
	if !ws.RepairBatch(g, w, []LinkChange{
		{Link: 0, OldEff: 4, NewEff: 2},
		{Link: 6, OldEff: 1, NewEff: 5},
	}, m) {
		t.Fatal("mixed batch reported no change")
	}
	fresh.Run(g, w, 3, m)
	requireSameSPF(t, "batch mixed", g, w, m, ws, fresh)

	// A batch of pure membership changes — failing one of node 0's two
	// equal tight out-links together with an off-DAG reverse link — must
	// not move any distance.
	w[0], w[4], w[6] = 1, 1, 1
	ws.Run(g, w, 3, m)
	m.FailLink(0)
	m.FailLink(1)
	if ws.RepairBatch(g, w, []LinkChange{
		{Link: 0, OldEff: 1, NewEff: Inf},
		{Link: 1, OldEff: 1, NewEff: Inf},
	}, m) {
		t.Fatal("membership-only batch must not change distances")
	}
	fresh.Run(g, w, 3, m)
	requireSameSPF(t, "batch ecmp", g, w, m, ws, fresh)
}

// TestRepairBatchEpochWraparound: the per-link batch marks are epoch
// cleared on wraparound like the node marks.
func TestRepairBatchEpochWraparound(t *testing.T) {
	g := diamond()
	w := equalWeights(g, 1)
	m := graph.NewMask(g)
	ws := NewWorkspace(g)
	fresh := NewWorkspace(g)
	ws.Run(g, w, 3, m)

	ws.batchEpoch = math.MaxInt32
	for i := range ws.batchOldMark {
		ws.batchOldMark[i] = 1
		ws.batchUpMark[i] = 2
		ws.batchOld[i] = 999
	}
	for step := 0; step < 3; step++ {
		m.FailLink(0)
		ws.RepairBatch(g, w, []LinkChange{{Link: 0, OldEff: 1, NewEff: Inf}}, m)
		fresh.Run(g, w, 3, m)
		requireSameSPF(t, "wrap down", g, w, m, ws, fresh)
		if step == 0 && ws.batchEpoch != 1 {
			t.Fatalf("batch epoch after wrap = %d, want 1", ws.batchEpoch)
		}
		m.ReviveLink(0)
		ws.RepairBatch(g, w, []LinkChange{{Link: 0, OldEff: Inf, NewEff: 1}}, m)
		fresh.Run(g, w, 3, m)
		requireSameSPF(t, "wrap up", g, w, m, ws, fresh)
	}
}

// randomBatch mutates w/mask/down with 1..maxK simultaneous link
// changes (toggles and weight moves on distinct links) and returns the
// batch describing them.
func randomBatch(r *rand.Rand, g *graph.Graph, w []int32, mask *graph.Mask, down []bool, maxK int) []LinkChange {
	m := g.NumLinks()
	k := 1 + r.Intn(maxK)
	used := make(map[int]bool, k)
	var changes []LinkChange
	for len(changes) < k {
		li := r.Intn(m)
		if used[li] {
			continue
		}
		used[li] = true
		switch {
		case down[li]:
			mask.ReviveLink(li)
			down[li] = false
			changes = append(changes, LinkChange{Link: li, OldEff: Inf, NewEff: int64(w[li])})
		case r.Float64() < 0.5:
			mask.FailLink(li)
			down[li] = true
			changes = append(changes, LinkChange{Link: li, OldEff: int64(w[li]), NewEff: Inf})
		default:
			oldW := w[li]
			newW := int32(1 + r.Intn(20))
			w[li] = newW
			changes = append(changes, LinkChange{Link: li, OldEff: int64(oldW), NewEff: int64(newW)})
		}
	}
	return changes
}

// TestQuickRepairBatchMatchesRun maintains one destination's SPF
// through random multi-link batches purely by batch repair, comparing
// against a from-scratch run after every batch.
func TestQuickRepairBatchMatchesRun(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g, w := randGraph(r)
		dest := r.Intn(g.NumNodes())
		mask := graph.NewMask(g)
		down := make([]bool, g.NumLinks())
		ws := NewWorkspace(g)
		fresh := NewWorkspace(g)
		ws.Run(g, w, dest, mask)
		for step := 0; step < 30; step++ {
			ws.RepairBatch(g, w, randomBatch(r, g, w, mask, down, 6), mask)
			fresh.Run(g, w, dest, mask)
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

// testRepairBatchEquivalence drives per-destination snapshots through
// random multi-link batches via State.RepairBatch, asserting full
// bit-identity with a from-scratch run after every batch.
func testRepairBatchEquivalence(t *testing.T, g *graph.Graph, ndests, steps, maxK int, seed int64) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	n, m := g.NumNodes(), g.NumLinks()
	w := make([]int32, m)
	for i := range w {
		w[i] = int32(1 + r.Intn(20))
	}
	mask := graph.NewMask(g)
	down := make([]bool, m)
	ws := NewWorkspace(g)
	fresh := NewWorkspace(g)

	dests := r.Perm(n)[:ndests]
	states := make([]State, ndests)
	for i, d := range dests {
		ws.Run(g, w, d, mask)
		ws.Save(&states[i])
	}

	for step := 0; step < steps; step++ {
		changes := randomBatch(r, g, w, mask, down, maxK)
		for i := range states {
			states[i].RepairBatch(ws, g, w, changes, mask)
		}
		for i, d := range dests {
			fresh.Run(g, w, d, mask)
			ws.Restore(&states[i])
			requireSameSPF(t, "batch", g, w, mask, ws, fresh)
		}
	}
}

func TestRepairBatchEquivalenceRand8(t *testing.T) {
	g := repairTestTopo(t, topogen.RandKind, 8, 40, 4)
	testRepairBatchEquivalence(t, g, 8, 80, 8, 21)
}

func TestRepairBatchEquivalenceISP16(t *testing.T) {
	g := repairTestTopo(t, topogen.ISPKind, 0, 0, 5)
	testRepairBatchEquivalence(t, g, 8, 60, 8, 22)
}

func TestRepairBatchEquivalenceRandTopo100(t *testing.T) {
	steps := 30
	if testing.Short() {
		steps = 8
	}
	g := repairTestTopo(t, topogen.RandKind, 100, 500, 6)
	testRepairBatchEquivalence(t, g, 5, steps, 12, 23)
}

// TestRepairBatchSRLG: an 8-link shared-risk group trips and later
// recovers as two batches, the workload the batch path exists for.
func TestRepairBatchSRLG(t *testing.T) {
	g := repairTestTopo(t, topogen.RandKind, 100, 500, 7)
	r := rand.New(rand.NewSource(31))
	w := make([]int32, g.NumLinks())
	for i := range w {
		w[i] = int32(1 + r.Intn(20))
	}
	mask := graph.NewMask(g)
	ws := NewWorkspace(g)
	fresh := NewWorkspace(g)

	group := r.Perm(g.NumLinks())[:8]
	for round := 0; round < 5; round++ {
		dest := r.Intn(g.NumNodes())
		ws.Run(g, w, dest, mask)

		var trip, restore []LinkChange
		for _, li := range group {
			mask.FailLink(li)
			trip = append(trip, LinkChange{Link: li, OldEff: int64(w[li]), NewEff: Inf})
			restore = append(restore, LinkChange{Link: li, OldEff: Inf, NewEff: int64(w[li])})
		}
		ws.RepairBatch(g, w, trip, mask)
		fresh.Run(g, w, dest, mask)
		requireSameSPF(t, "srlg trip", g, w, mask, ws, fresh)

		for _, li := range group {
			mask.ReviveLink(li)
		}
		ws.RepairBatch(g, w, restore, mask)
		fresh.Run(g, w, dest, mask)
		requireSameSPF(t, "srlg restore", g, w, mask, ws, fresh)
	}
}

// TestRepairBatchStatsPaths: a batch of one counts under the path it
// takes — increase, decrease, or noop when it cannot move a distance —
// and only a multi-link batch counts as batch.
func TestRepairBatchStatsPaths(t *testing.T) {
	g := diamond()
	w := equalWeights(g, 1)
	m := graph.NewMask(g)
	ws := NewWorkspace(g)
	ws.Run(g, w, 3, m)

	step := func(name string, changes []LinkChange, want RepairStats) {
		t.Helper()
		before := ws.Stats()
		ws.RepairBatch(g, w, changes, m)
		got := ws.Stats().Sub(before)
		got.ChangedNodes = 0
		if got != want {
			t.Fatalf("%s: stats delta %+v, want %+v", name, got, want)
		}
	}
	w[0] = 4
	step("raise", []LinkChange{{Link: 0, OldEff: 1, NewEff: 4}}, RepairStats{Increase: 1})
	w[0] = 1
	step("lower", []LinkChange{{Link: 0, OldEff: 4, NewEff: 1}}, RepairStats{Decrease: 1})
	m.FailLink(2)
	step("fail", []LinkChange{{Link: 2, OldEff: 1, NewEff: Inf}}, RepairStats{Increase: 1})
	m.ReviveLink(2)
	step("restore", []LinkChange{{Link: 2, OldEff: Inf, NewEff: 1}}, RepairStats{Decrease: 1})
	step("same weight", []LinkChange{{Link: 0, OldEff: 1, NewEff: 1}}, RepairStats{Noop: 1})
	w[0] = 4
	w[2] = 4
	step("batch", []LinkChange{
		{Link: 0, OldEff: 1, NewEff: 4},
		{Link: 2, OldEff: 1, NewEff: 4},
	}, RepairStats{Batch: 1})

	// Cut node 0 off, then raise link 1 (1->0): its head cannot reach
	// the destination, so the move is a noop.
	m.FailLink(0)
	m.FailLink(2)
	ws.Run(g, w, 3, m)
	w[1] = 9
	step("unreachable head", []LinkChange{{Link: 1, OldEff: 1, NewEff: 9}}, RepairStats{Noop: 1})
}
