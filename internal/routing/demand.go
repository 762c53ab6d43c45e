package routing

import (
	"slices"

	"repro/internal/traffic"
)

// The demand-delta path: demand updates are the one event class whose
// routing provably cannot change — weights and topology are untouched,
// so every SPF snapshot, DAG and distance stays exactly as it is. Only
// the destination columns whose demands moved need new load
// contributions and Λ subtotals, and within a column only what lies
// downstream of a changed source: the session's recompute runs the same
// seeded partial refresh as for a link change (refresh.go), seeded at
// the column's changed sources, and its tail already maintains the link
// aggregates and the delay DP ripple in the bit-exact re-summation
// order. A dense update that moves most columns falls back to the full
// Init rebase — same bits, and the delta bookkeeping would only add
// overhead. See DESIGN.md ("The demand-delta engine").

// demandRebaseFracDefault is the default fallback threshold: a demand
// update changing more than this fraction of the 2n destination columns
// (n per class) rebases from scratch instead of refreshing per column.
const demandRebaseFracDefault = 0.5

// demandDenseFracDefault is the default dense-path threshold: a demand
// update changing more than this fraction of the 2n columns (but not
// enough to rebase) refreshes the changed contributions in place and
// re-sums every link load once, instead of paying per-column undo
// bookkeeping and changed-link discovery.
const demandDenseFracDefault = 0.1

// SetDemandRebaseThreshold tunes the demand-update fallback: updates
// changing more than frac of the 2n destination columns re-base with a
// full Init instead of the incremental column refresh. frac 0 forces
// every demand update down the full-rebase path (the pre-delta
// behavior, kept as the benchmark baseline and test oracle); frac 1
// never falls back. Values are clamped to [0, 1]; the default is 0.5.
// Both paths produce bit-identical results — the threshold trades only
// constant factors.
func (s *Session) SetDemandRebaseThreshold(frac float64) {
	s.rebaseFrac = min(max(frac, 0), 1)
}

// SetDemandBatchThreshold tunes where demand updates switch from the
// sparse per-column refresh (logged writes, changed-link re-sum) to the
// dense batch path (the same refresh without a log, every link load
// re-summed once): updates changing more than frac of the 2n destination
// columns go dense. frac 0 sends every update down the dense path; frac
// 1 disables it (the pre-batch behavior, kept as the test oracle).
// Values are clamped to [0, 1]; the default is 0.1. Both paths produce
// bit-identical results — the threshold trades only constant factors.
func (s *Session) SetDemandBatchThreshold(frac float64) {
	s.denseFrac = min(max(frac, 0), 1)
}

// SetDemands replaces the session's demand matrices — a dense
// demand-matrix telemetry update. Nil restores the evaluator's base
// matrix of that class. The update is diffed against the current
// matrices: destination columns with identical demands keep their
// cached contributions and Λ subtotals untouched (no work at all when
// the matrices are equal), changed columns recompute without a single
// Dijkstra, and only an update moving most columns pays the full Init
// rebase. Results are bit-identical to a from-scratch evaluation under
// the new matrices either way. Any pending Apply undo is cleared; the
// matrices are adopted, not copied, and must not be mutated by the
// caller afterwards.
func (s *Session) SetDemands(demD, demT *traffic.Matrix) Result {
	if !s.inited {
		panic("routing: Session.SetDemands before Init")
	}
	if demD == nil {
		demD = s.e.demD
	}
	if demT == nil {
		demT = s.e.demT
	}
	if demD.Size() != s.e.g.NumNodes() || demT.Size() != s.e.g.NumNodes() {
		panic("routing: override traffic matrix size does not match graph")
	}
	if m := met.Get(); m != nil {
		m.updDemand.Inc()
	}
	sp := s.beginUpdateSpan("session.demand")
	s.diffD.diff(s.demD, demD)
	s.diffT.diff(s.demT, demT)
	s.demD, s.demT = demD, demT
	s.ownsDemD, s.ownsDemT = false, false
	res := s.refreshDemands()
	sp.SetAttr("columns", int64(len(s.diffD.cols)+len(s.diffT.cols)))
	s.endUpdateSpan(sp)
	return res
}

// ApplyDemandDelta folds sparse demand updates into the session's
// current matrices (nil deltas are no-ops for their class) and
// incrementally re-evaluates: only the destination columns the deltas
// actually change — entries restating the current value are skipped —
// recompute their load contributions and Λ subtotals; shortest-path
// state is provably untouched. Like SetLinkState, the change commits
// immediately: any pending Apply undo is cleared and the update cannot
// itself be reverted (apply the delta's Inverse to undo it). Deltas
// must validate against the graph's node count (panic otherwise,
// matching the matrix-size contract); Old values are not checked — the
// delta describes the transition from whatever state the session
// holds. Results are bit-identical to SetDemands with the equivalent
// dense matrices.
func (s *Session) ApplyDemandDelta(dd, dt *traffic.Delta) Result {
	if !s.inited {
		panic("routing: Session.ApplyDemandDelta before Init")
	}
	if m := met.Get(); m != nil {
		m.updDelta.Inc()
	}
	n := s.e.g.NumNodes()
	if err := dd.Validate(n); err != nil {
		panic("routing: " + err.Error())
	}
	if err := dt.Validate(n); err != nil {
		panic("routing: " + err.Error())
	}
	sp := s.beginUpdateSpan("session.demand_delta")
	sp.SetAttr("entries", int64(dd.Len()+dt.Len()))
	applyDeltaClass(&s.demD, &s.ownsDemD, dd, &s.diffD)
	applyDeltaClass(&s.demT, &s.ownsDemT, dt, &s.diffT)
	res := s.refreshDemands()
	sp.SetAttr("columns", int64(len(s.diffD.cols)+len(s.diffT.cols)))
	s.endUpdateSpan(sp)
	return res
}

// refreshDemands is the shared evaluation tail of the demand updates:
// the session's matrices already hold the new values, s.diffD/s.diffT
// hold the changed entries per class grouped by destination column. It
// routes small updates through recompute — each changed, alive column
// refreshed from its changed sources — and large ones through the full
// Init rebase.
func (s *Session) refreshDemands() Result {
	chgD, chgT := s.diffD.cols, s.diffT.cols
	if len(chgD)+len(chgT) == 0 {
		// Nothing observable moved; just honor the "pending undo is
		// cleared" contract.
		s.recycleUndo()
		s.canRevert = false
		return s.res
	}
	n := s.e.g.NumNodes()
	if m := met.Get(); m != nil {
		m.demandColumns.Observe(float64(len(chgD) + len(chgT)))
	}
	if float64(len(chgD)+len(chgT)) > s.rebaseFrac*float64(2*n) {
		if m := met.Get(); m != nil {
			m.demandRebases.Inc()
		}
		return s.Init(s.w)
	}
	s.recycleUndo()
	s.canRevert = false
	u := &s.undo
	u.noop = false
	u.res = s.res
	u.droppedT = s.droppedT
	s.affD, s.affT = s.affD[:0], s.affT[:0]
	s.dagD, s.dagT = s.dagD[:0], s.dagT[:0]
	nAlive := 0
	for _, t := range chgD {
		if s.alive(t) {
			nAlive++
		}
	}
	for _, t := range chgT {
		if s.alive(t) {
			nAlive++
		}
	}
	if nAlive == 0 {
		return s.res // only dead destinations' columns moved
	}
	// Past denseFrac the refresh runs without a log and every link load
	// is re-summed once in Init's exact addition order — same bits, none
	// of the changed-link bookkeeping.
	s.denseCols = float64(nAlive) > s.denseFrac*float64(2*n)
	if s.denseCols {
		if m := met.Get(); m != nil {
			m.demandDense.Inc()
		}
	}
	s.demandUpd = true
	s.recompute(u)
	s.demandUpd, s.denseCols = false, false
	return s.res
}

// demandDiff is one class's changed demand entries grouped by
// destination column: cols lists the changed columns ascending, and
// column t's changed sources are src[k] for k = head[t], next[k], …
// until -1.
type demandDiff struct {
	cols      []int
	head      []int32
	next, src []int32
}

// reset empties the diff for an n-node matrix.
func (d *demandDiff) reset(n int) {
	if len(d.head) != n {
		d.head = make([]int32, n)
		d.cols = d.cols[:0]
		for t := range d.head {
			d.head[t] = -1
		}
	}
	for _, t := range d.cols {
		d.head[t] = -1
	}
	d.cols, d.next, d.src = d.cols[:0], d.next[:0], d.src[:0]
}

// add records that entry (src, t) changed.
func (d *demandDiff) add(src, t int) {
	if d.head[t] < 0 {
		d.cols = append(d.cols, t)
	}
	d.next = append(d.next, d.head[t])
	d.head[t] = int32(len(d.src))
	d.src = append(d.src, int32(src))
}

// seed adds column t's changed sources to the worker's seed set.
func (d *demandDiff) seed(wk *sesWorker, t int) {
	for k := d.head[t]; k >= 0; k = d.next[k] {
		wk.seed(d.src[k])
	}
}

// diff records every entry on which cur and next differ.
func (d *demandDiff) diff(cur, next *traffic.Matrix) {
	n := cur.Size()
	d.reset(n)
	if cur == next {
		return
	}
	for src := 0; src < n; src++ {
		for t := 0; t < n; t++ {
			if cur.At(src, t) != next.At(src, t) {
				d.add(src, t)
			}
		}
	}
	slices.Sort(d.cols)
}

// applyDeltaClass folds one class's delta into the session's matrix —
// clone-on-write, since the current matrix may be shared with the
// evaluator or a caller — and records the entries whose values actually
// changed in diff.
func applyDeltaClass(m **traffic.Matrix, owned *bool, d *traffic.Delta, diff *demandDiff) {
	cur := *m
	diff.reset(cur.Size())
	if d == nil {
		return
	}
	for _, e := range d.Entries {
		if cur.At(e.S, e.T) == e.New {
			continue
		}
		if !*owned {
			if mm := met.Get(); mm != nil {
				mm.demandClones.Inc()
			}
			cur = cur.Clone()
			*m = cur
			*owned = true
		}
		cur.Set(e.S, e.T, e.New)
		diff.add(e.S, e.T)
	}
	slices.Sort(diff.cols)
}
