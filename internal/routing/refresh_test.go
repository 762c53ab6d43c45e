package routing

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/spf"
	"repro/internal/topogen"
)

// requireFreshDests checks every alive destination's cached state against
// a fresh pass over its own snapshot: both classes' contributions and the
// throughput drop must be bit-equal to AccumulateLoadsInto, and the
// delay DAG must equal a buildDAG with every node seeded.
func requireFreshDests(t *testing.T, step string, s *Session) {
	t.Helper()
	g := s.e.g
	n, m := g.NumNodes(), g.NumLinks()
	ws := spf.NewWorkspace(g)
	col := make([]float64, n)
	fresh := make([]float64, m)
	sameBits := func(class string, dest int, got []float64) {
		t.Helper()
		for li := range fresh {
			if math.Float64bits(got[li]) != math.Float64bits(fresh[li]) {
				t.Fatalf("%s: dest %d %s contribution on link %d = %v, fresh pass %v", step, dest, class, li, got[li], fresh[li])
			}
		}
	}
	for dest := 0; dest < n; dest++ {
		if !s.alive(dest) {
			continue
		}
		dc := &s.dDest[dest]
		ws.Restore(&dc.state)
		demandColumn(s.demD, dest, s.skipNode, col)
		ws.AccumulateLoadsInto(g, s.w.Delay, col, s.mask, fresh)
		sameBits("delay", dest, s.dContrib[dest])
		want := delayDest{state: dc.state}
		s.buildDAG(&want, nil, nil)
		if !slices.Equal(dc.dagOff, want.dagOff) || !slices.Equal(dc.dagLinks, want.dagLinks) {
			t.Fatalf("%s: dest %d delay DAG differs from a fresh build", step, dest)
		}

		ws.Restore(&s.tStates[dest])
		demandColumn(s.demT, dest, s.skipNode, col)
		dropped := ws.AccumulateLoadsInto(g, s.w.Throughput, col, s.mask, fresh)
		sameBits("throughput", dest, s.tContrib[dest])
		if math.Float64bits(s.tDropped[dest]) != math.Float64bits(dropped) {
			t.Fatalf("%s: dest %d dropped %v, fresh pass %v", step, dest, s.tDropped[dest], dropped)
		}
	}
}

// TestPartialRefreshMatchesFreshPass is the per-destination oracle of the
// seeded partial refresh: after every step of a random drive — weight
// moves with and without Revert, single- and multi-link flips (including
// batches that cut a node off and the batches that restore it) and
// sparse demand deltas — each destination's in-place contributions, drop
// and patched DAG must equal a fresh pass over its snapshot. It runs on
// normal, link-failure and node-failure sessions, serial and with four
// workers.
func TestPartialRefreshMatchesFreshPass(t *testing.T) {
	ev := sessionTestEvaluator(t, topogen.RandKind, 14, 64, 91)
	g := ev.Graph()
	n, m := g.NumNodes(), g.NumLinks()
	scenarios := []struct {
		name string
		new  func() *Session
	}{
		{"normal", func() *Session { return ev.NewSession(graph.NewMask(g), -1) }},
		{"link-failure", func() *Session { return ev.NewLinkFailureSession(5, true) }},
		{"node-failure", func() *Session { return ev.NewNodeFailureSession(3) }},
	}
	for _, sc := range scenarios {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", sc.name, workers), func(t *testing.T) {
				s := sc.new()
				s.SetParallelism(workers)
				rng := rand.New(rand.NewSource(92))
				s.Init(RandomWeightSetting(m, 20, rng))
				requireFreshDests(t, "init", s)
				var isolated []LinkStateChange // the links of a cut-off node, while it is cut off
				for i := 0; i < 120; i++ {
					var step string
					switch r := rng.Intn(10); {
					case r < 3:
						step = "apply"
						s.Apply(rng.Intn(m), int32(1+rng.Intn(20)), int32(1+rng.Intn(20)))
						if rng.Intn(2) == 0 {
							requireFreshDests(t, step, s)
							step = "revert"
							s.Revert()
						}
					case r < 5:
						step = "flip"
						li := rng.Intn(m)
						s.SetLinkState(li, !s.mask.LinkAlive(li))
					case r < 7:
						step = "batch"
						chg := make([]LinkStateChange, 2+rng.Intn(5))
						for j := range chg {
							chg[j] = LinkStateChange{Link: rng.Intn(m), Up: rng.Intn(2) == 0}
						}
						s.SetLinkStates(chg)
					case r < 8:
						if isolated == nil {
							step = "disconnect"
							v := rng.Intn(n)
							for _, li := range g.OutLinks(v) {
								isolated = append(isolated, LinkStateChange{Link: int(li)})
							}
							for _, li := range g.InLinks(v) {
								isolated = append(isolated, LinkStateChange{Link: int(li)})
							}
						} else {
							step = "restore"
							for j := range isolated {
								isolated[j].Up = true
							}
						}
						s.SetLinkStates(isolated)
						if step == "restore" {
							isolated = nil
						}
					default:
						step = "demand"
						s.ApplyDemandDelta(randomDelta(s.demD, 8, rng), randomDelta(s.demT, 8, rng))
					}
					requireFreshDests(t, fmt.Sprintf("step %d (%s)", i, step), s)
				}
			})
		}
	}
}
