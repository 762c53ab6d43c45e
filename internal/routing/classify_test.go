package routing

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/spf"
	"repro/internal/topogen"
	"repro/internal/traffic"
)

// destAffect reports how the last link change classified destination t
// in one class, from the session's classification lists.
func destAffect(t int, aff, dag []int) int {
	switch {
	case slices.Contains(aff, t):
		return affectFull
	case slices.Contains(dag, t):
		return affectDAGOnly
	}
	return affectNone
}

// classifyCase is one link change on the two-path diamond (links 0:0->1
// 2:0->2 4:1->3 6:2->3, reverse links odd) and the classification it
// must get for destination 3.
type classifyCase struct {
	name     string
	weights  map[int]int32 // non-unit weights before the change
	failed   []int         // links down before the change
	deadNode int           // node down before the change when nonzero
	link     int
	move     int32 // Apply(link, move, move) when nonzero, else a flip
	up       bool  // the flip's direction
	want     int
}

// runClassifyCases drives each case through the real entry points: a
// weight move is an Apply, a flip is a SetLinkState. Both classes carry
// the same weights, so they must agree.
func runClassifyCases(t *testing.T, cases []classifyCase) {
	t.Helper()
	const dest = 3
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := twoPath(1000)
			dem := singleDemand(4, 0, dest, 10)
			ev := defaultEval(g, dem, dem)
			mask := graph.NewMask(g)
			for _, li := range tc.failed {
				mask.FailLink(li)
			}
			if tc.deadNode != 0 {
				mask.FailNode(tc.deadNode)
			}
			s := ev.NewSession(mask, -1)
			w := NewWeightSetting(g.NumLinks())
			for li, v := range tc.weights {
				w.Set(li, v, v)
			}
			s.Init(w)
			if tc.move != 0 {
				s.Apply(tc.link, tc.move, tc.move)
			} else {
				s.SetLinkState(tc.link, tc.up)
			}
			gotD := destAffect(dest, s.affD, s.dagD)
			gotT := destAffect(dest, s.affT, s.dagT)
			if gotD != tc.want || gotT != tc.want {
				t.Fatalf("delay class %d, throughput class %d, want %d", gotD, gotT, tc.want)
			}
		})
	}
}

// TestClassifyBoundaryCases pins the classifier's boundary cases for
// destination 3 on live links with a reachable head.
func TestClassifyBoundaryCases(t *testing.T) {
	runClassifyCases(t, []classifyCase{
		{name: "unchanged weight", link: 0, move: 1, want: affectNone},
		{name: "covered leave: raise one of two tight out-links", link: 0, move: 5, want: affectDAGOnly},
		{name: "covered leave: fail one of two tight out-links", link: 0, want: affectDAGOnly},
		{name: "uncovered leave: raise the unique tight out-link", weights: map[int]int32{2: 3}, link: 0, move: 5, want: affectFull},
		{name: "uncovered leave: fail the unique tight out-link", weights: map[int]int32{2: 3}, link: 0, want: affectFull},
		{name: "reverse link toward the destination's side", weights: map[int]int32{5: 5}, link: 5, move: 1, want: affectNone},
		{name: "raise an off-DAG link", weights: map[int]int32{0: 10}, link: 0, move: 15, want: affectNone},
		{name: "tie join: lower an off-DAG link to a tie", weights: map[int]int32{0: 10}, link: 0, move: 1, want: affectDAGOnly},
		{name: "tie join: restore a link at a tie", failed: []int{0}, link: 0, up: true, want: affectDAGOnly},
		{name: "strict improvement: lower an off-DAG link", weights: map[int]int32{0: 10, 2: 3}, link: 0, move: 1, want: affectFull},
		{name: "strict improvement: restore a shorter link", weights: map[int]int32{2: 3}, failed: []int{0}, link: 0, up: true, want: affectFull},
	})
}

// TestClassifyDeadLinkAndDeadDest pins the cases where nothing can change
// for destination 3: a weight move on a failed link, a change whose head
// is cut off from the destination, and a destination that is itself
// down (the session skips it before classifying).
func TestClassifyDeadLinkAndDeadDest(t *testing.T) {
	runClassifyCases(t, []classifyCase{
		{name: "dead link weight move", failed: []int{0}, link: 0, move: 20, want: affectNone},
		{name: "unreachable head: node 1 cut off", failed: []int{1, 4}, link: 0, move: 7, want: affectNone},
		{name: "unreachable head: lower into node 1 cut off", failed: []int{1, 4}, weights: map[int]int32{0: 9}, link: 0, move: 1, want: affectNone},
		{name: "dead destination: raise a link into it", deadNode: 3, link: 4, move: 7, want: affectNone},
		{name: "dead destination: lower a link into it", deadNode: 3, weights: map[int]int32{4: 9}, link: 4, move: 1, want: affectNone},
		{name: "dead destination: fail a link into it", deadNode: 3, link: 6, want: affectNone},
	})
}

// TestQuickUnaffectedMeansIdentical is the soundness property the whole
// incremental engine rests on: when the classifier leaves a destination
// untouched by a weight move or a link flip, a fresh Dijkstra under the
// new weights and mask yields bit-identical distances AND a
// bit-identical per-link load contribution to the cached ones.
func TestQuickUnaffectedMeansIdentical(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ev := sessionTestEvaluator(t, topogen.RandKind, 8, 40, seed)
		g := ev.Graph()
		n, m := g.NumNodes(), g.NumLinks()
		s := ev.NewSession(graph.NewMask(g), -1)
		w := RandomWeightSetting(m, 20, r)
		s.Init(w)
		ws := spf.NewWorkspace(g)
		col := make([]float64, n)
		contrib := make([]float64, m)

		same := func(w []int32, st *spf.State, cached []float64, dem *traffic.Matrix) bool {
			ws.Run(g, w, int(st.Dest), s.mask)
			for v := 0; v < n; v++ {
				if ws.Dist(v) != st.Dist[v] {
					return false
				}
			}
			demandColumn(dem, int(st.Dest), -1, col)
			ws.AccumulateLoadsInto(g, w, col, s.mask, contrib)
			return slices.Equal(contrib, cached)
		}
		for trial := 0; trial < 10; trial++ {
			li := r.Intn(m)
			if r.Float64() < 0.3 {
				s.SetLinkState(li, s.mask.LinkFailed(li))
			} else {
				s.Apply(li, int32(1+r.Intn(20)), int32(1+r.Intn(20)))
			}
			for d := 0; d < n; d++ {
				if destAffect(d, s.affD, s.dagD) == affectNone &&
					!same(s.w.Delay, &s.dDest[d].state, s.dContrib[d], s.demD) {
					return false
				}
				if destAffect(d, s.affT, s.dagT) == affectNone &&
					!same(s.w.Throughput, &s.tStates[d], s.tContrib[d], s.demT) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
