package routing

// Link changes: every weight move (Apply) and every set of simultaneous
// link flips (SetLinkState, SetLinkStates: an SRLG trip, a maintenance
// window, a correlated restoration) is described as a batch of
// spf.LinkChange per class — the link's effective weight before and
// after, Inf meaning down — classified once per destination and repaired
// with one Ramalingam–Reps pass (spf.RepairBatch) per affected
// destination. A single change is a batch of one.
//
// The per-destination classification is evaluated against the
// pre-change snapshots, one changed link at a time:
//
//   - A link whose effective weight drops (a weight decrease, or a
//     restored link coming back from Inf) matters only where
//     newEff + dist(head) ties (joins the DAG; distances provably
//     unchanged) or strictly beats (repair) the cached dist(tail). If
//     every such link's head is unreachable, no distance can improve:
//     any new path's last improved arc (x,y) would need a finite old
//     dist(y) to reach the destination.
//   - A link whose effective weight rises (a weight increase, or a
//     failure going to Inf) matters only if it was tight (on the DAG).
//     Distances survive iff every such link's tail keeps at least one
//     original tight out-link outside the batch (alive before, not
//     changing now): any shortest path through the link can be re-routed
//     at its tail for the same total weight. Links joining the DAG in the
//     same batch do not count: that keeps the test conservative — and
//     exact, because if no dropping link strictly improves, distances
//     cannot decrease, and the minimal-old-distance affected vertex would
//     have to be a tail that lost all surviving tight out-links, which
//     the test flags.
//
// Everything downstream — load re-summation, linkPass, the Λ ripple —
// is the ordinary recompute tail, so results stay bit-identical to a
// from-scratch evaluation, and to applying a batch's flips one at a time
// (in any order).

import (
	"math"

	"repro/internal/graph"
	"repro/internal/obsv"
	"repro/internal/spf"
)

// LinkStateChange is one link flip of a batched topology event.
type LinkStateChange struct {
	Link int
	Up   bool
}

// SetLinkStates applies a set of simultaneous link flips — the batch
// form of SetLinkState — incrementally re-evaluates, and returns the new
// Result. Repeated links resolve last-wins; flips already in the desired
// state are ignored (a batch with no effective flip is a pure no-op,
// like SetLinkState restating the current state). An effective change
// commits immediately: any pending Apply undo is cleared and the batch
// cannot itself be reverted. Results are bit-identical to applying the
// effective flips through SetLinkState one at a time. Unlike a weight
// move, the per-link aggregate pass re-runs even with no affected
// destinations: link aliveness itself feeds the utilization summary.
func (s *Session) SetLinkStates(changes []LinkStateChange) Result {
	if !s.inited {
		panic("routing: Session.SetLinkStates before Init")
	}
	if m := met.Get(); m != nil {
		if len(changes) == 1 {
			m.updLink.Inc()
		} else {
			m.updBatch.Inc()
		}
	}
	g := s.e.g
	if s.mask == nil {
		anyDown := false
		for _, c := range changes {
			if !c.Up {
				anyDown = true
				break
			}
		}
		if !anyDown {
			return s.res // an absent mask means everything is already up
		}
		s.mask = graph.NewMask(g)
	}

	// Last-wins dedup of repeated links, dropping flips that restate the
	// current state.
	ep := s.nextMarkEpoch()
	s.lsChanges = s.lsChanges[:0]
	for i := len(changes) - 1; i >= 0; i-- {
		c := changes[i]
		if s.linkMark[c.Link] == ep {
			continue
		}
		s.linkMark[c.Link] = ep
		if c.Up == !s.mask.LinkFailed(c.Link) {
			continue
		}
		s.lsChanges = append(s.lsChanges, c)
	}
	if m := met.Get(); m != nil && len(changes) > 1 {
		m.batchLinks.Observe(float64(len(s.lsChanges)))
	}
	if len(s.lsChanges) == 0 {
		return s.res
	}
	s.recycleUndo()
	s.canRevert = false
	s.undo.noop = false

	// Flips of links with a dead endpoint change nothing observable;
	// commit them silently and drop them from the batch.
	eff := s.lsChanges[:0]
	for _, c := range s.lsChanges {
		if !s.mask.NodeAlive(int(s.linkFrom[c.Link])) || !s.mask.NodeAlive(int(s.linkTo[c.Link])) {
			if c.Up {
				s.mask.ReviveLink(c.Link)
			} else {
				s.mask.FailLink(c.Link)
			}
			continue
		}
		eff = append(eff, c)
	}
	s.lsChanges = eff
	if len(s.lsChanges) == 0 {
		return s.res
	}

	var sp *obsv.Span
	if len(s.lsChanges) == 1 {
		c := s.lsChanges[0]
		sp = s.beginUpdateSpan("session.link")
		sp.SetAttr("link", int64(c.Link))
		if c.Up {
			sp.SetAttr("up", 1)
		}
	} else {
		sp = s.beginUpdateSpan("session.link_batch")
		sp.SetAttr("links", int64(len(s.lsChanges)))
	}

	// Describe the batch in each class's weights, classify against the
	// pre-flip snapshots, then commit the flips.
	csp := sp.Child("session.classify")
	s.batchD, s.batchT = s.batchD[:0], s.batchT[:0]
	for _, c := range s.lsChanges {
		li := c.Link
		wd, wt := int64(s.w.Delay[li]), int64(s.w.Throughput[li])
		if c.Up {
			s.batchD = append(s.batchD, spf.LinkChange{Link: li, OldEff: spf.Inf, NewEff: wd})
			s.batchT = append(s.batchT, spf.LinkChange{Link: li, OldEff: spf.Inf, NewEff: wt})
		} else {
			s.batchD = append(s.batchD, spf.LinkChange{Link: li, OldEff: wd, NewEff: spf.Inf})
			s.batchT = append(s.batchT, spf.LinkChange{Link: li, OldEff: wt, NewEff: spf.Inf})
		}
	}
	s.classifyDests()
	for _, c := range s.lsChanges {
		if c.Up {
			s.mask.ReviveLink(c.Link)
		} else {
			s.mask.FailLink(c.Link)
		}
	}
	csp.End()

	u := &s.undo
	u.res = s.res
	u.droppedT = s.droppedT
	s.recompute(u)
	s.endUpdateSpan(sp)
	return s.res
}

// effW is link li's effective weight w under the session's mask: Inf
// while the link is dead.
func (s *Session) effW(li int, w int32) int64 {
	if !s.mask.LinkAlive(li) {
		return spf.Inf
	}
	return int64(w)
}

// Session-internal affect classification of one destination.
const (
	affectNone    = iota // distances and DAG both provably unchanged
	affectDAGOnly        // distances unchanged; ECMP membership toggles
	affectFull           // distances can change: SPF repair required
	affectLeave          // a tight link rose: the class's survival test decides
)

// classifyDests sorts the alive destinations into affD/dagD (delay
// class) and affT/dagT (throughput class) for the link changes in
// batchD/batchT, against the pre-change snapshots, weights and mask.
func (s *Session) classifyDests() {
	if s.lsEpoch == math.MaxInt32 {
		clear(s.lsMark)
		s.lsEpoch = 0
	}
	s.lsEpoch++
	for _, c := range s.batchD {
		s.lsMark[c.Link] = s.lsEpoch
	}
	n := s.e.g.NumNodes()
	s.affD, s.dagD = s.affD[:0], s.dagD[:0]
	s.affT, s.dagT = s.affT[:0], s.dagT[:0]
	for t := 0; t < n; t++ {
		if !s.alive(t) {
			continue
		}
		switch s.classifyDelay(t) {
		case affectFull:
			s.affD = append(s.affD, t)
		case affectDAGOnly:
			s.dagD = append(s.dagD, t)
		}
		switch s.classifyThroughput(t) {
		case affectFull:
			s.affT = append(s.affT, t)
		case affectDAGOnly:
			s.dagT = append(s.dagT, t)
		}
	}
}

// changeAffect applies the distance tests of one link change to a
// destination's distances. A rise on a tight link returns affectLeave:
// whether its tail keeps another tight out-link is the class's call.
func (s *Session) changeAffect(dist []int64, c spf.LinkChange) int {
	if c.OldEff == c.NewEff {
		return affectNone
	}
	dv := dist[s.linkTo[c.Link]]
	if dv >= spf.Inf {
		return affectNone // the link can never lead to this destination
	}
	du := dist[s.linkFrom[c.Link]]
	if c.NewEff < c.OldEff {
		switch nd := dv + c.NewEff; {
		case nd < du:
			return affectFull // strictly shorter: distances change
		case nd == du:
			return affectDAGOnly // joins the DAG at a distance tie
		}
		return affectNone
	}
	if du != dv+c.OldEff {
		return affectNone // off the DAG: it carried nothing
	}
	return affectLeave
}

// classifyDelay classifies the delay-class batch for destination t:
// affectFull as soon as any change can move a distance, affectDAGOnly
// if only memberships toggle, affectNone otherwise. The cached DAG
// adjacency is exactly a tail's tight alive out-links, so the survival
// test scans only those.
func (s *Session) classifyDelay(t int) int {
	dc := &s.dDest[t]
	out := affectNone
	for _, c := range s.batchD {
		a := s.changeAffect(dc.state.Dist, c)
		if a == affectLeave {
			a = affectFull
			u := s.linkFrom[c.Link]
			for _, lj := range dc.dagLinks[dc.dagOff[u]:dc.dagOff[u+1]] {
				if s.lsMark[lj] != s.lsEpoch {
					a = affectDAGOnly
					break
				}
			}
		}
		if a == affectFull {
			return affectFull
		}
		out = max(out, a)
	}
	return out
}

// classifyThroughput is classifyDelay for the throughput class; with no
// cached adjacency the survival test scans the tail's out-links — the
// O(degree) bound of the affected test.
func (s *Session) classifyThroughput(t int) int {
	dist := s.tStates[t].Dist
	out := affectNone
	for _, c := range s.batchT {
		a := s.changeAffect(dist, c)
		if a == affectLeave {
			a = affectFull
			u := s.linkFrom[c.Link]
			du := dist[u]
			for _, lj := range s.e.g.OutLinks(int(u)) {
				if s.lsMark[lj] == s.lsEpoch || !s.mask.LinkAlive(int(lj)) {
					continue
				}
				if dvj := dist[s.linkTo[lj]]; dvj < spf.Inf && du == dvj+int64(s.w.Throughput[lj]) {
					a = affectDAGOnly
					break
				}
			}
		}
		if a == affectFull {
			return affectFull
		}
		out = max(out, a)
	}
	return out
}
