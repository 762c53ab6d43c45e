package routing

import (
	"math"

	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/obsv"
	"repro/internal/spf"
	"repro/internal/traffic"
)

// Session is a stateful incremental evaluator for a local search that
// changes one link's weights at a time. It caches, for a fixed failure
// scenario (mask + skipNode) and the current weight setting:
//
//   - both classes' per-destination SPF snapshots (spf.State),
//   - each destination's per-link load contribution,
//   - the per-link load/delay/utilization aggregates, and
//   - each destination's Λ subtotal, violation and disconnection counts.
//
// Apply(l, wd, wt) touches shortest-path state only for destinations
// whose distances a change can reach (classifyDelay/classifyThroughput;
// membership-only changes refresh the DAG and ECMP split without
// touching distances), and even those destinations are not re-solved
// from scratch: their snapshots are repaired in place (Ramalingam–Reps
// incremental SPF, spf.State.RepairBatch with a batch of one),
// revisiting only the vertices whose distance actually moved. Their load
// contributions are refreshed in place only downstream of what moved
// (refresh.go); Apply then re-sums the changed links' loads and re-runs
// the delay DP only for destinations whose DAG changed or crosses a link
// whose delay value moved. Revert undoes the last Apply exactly. Demand
// updates (SetDemands, ApplyDemandDelta; see demand.go) never touch
// shortest-path state at all: weights are unchanged, so only the
// destination columns whose demands moved recompute their load
// contributions and Λ subtotals.
// Full Dijkstras remain only where no pre-change snapshot exists: Init
// and the dense-demand-update fallback rebase.
//
// Every Apply/Init result is bit-identical to what the stateless
// Evaluator.Evaluate computes for the same weights and scenario: the
// session shares the evaluator's pipeline primitives (AccumulateLoadsInto
// in Init, linkPass, destLambda), its partial refresh reproduces
// AccumulateLoadsInto bit for bit, and it re-sums cached per-destination
// terms in the same order the from-scratch pass visits them. See DESIGN.md
// ("The incremental evaluation engine") for the invariants.
//
// Detail fields of Result are never filled. A Session is not safe for
// concurrent use; distinct Sessions are independent.
type Session struct {
	e        *Evaluator
	mask     *graph.Mask
	skipNode int
	w        *WeightSetting
	// demD and demT are the demand matrices the session evaluates —
	// the evaluator's base traffic unless overridden at construction
	// (NewScenarioSession), by SetDemands, or by ApplyDemandDelta.
	// The owns flags report whether the session holds a private copy
	// (ApplyDemandDelta clones on first write; adopted caller matrices
	// are never mutated).
	demD, demT         *traffic.Matrix
	ownsDemD, ownsDemT bool
	// rebaseFrac is the demand-update fallback threshold: when a
	// demand update changes more than rebaseFrac of the 2n destination
	// columns, the incremental path yields to a full Init rebase. See
	// SetDemandRebaseThreshold.
	rebaseFrac float64

	// Per-destination caches (index = destination; dead or skipped
	// destinations keep zero values and nil slices).
	dDest    []delayDest
	tStates  []spf.State
	dContrib [][]float64
	tContrib [][]float64
	tDropped []float64
	lambdaT  []float64
	violT    []int
	discT    []int
	linkFrom []int32 // the graph's shared endpoint arrays, for
	linkTo   []int32 // allocation-free membership tests

	// Link-level aggregates.
	loadD, loadT, loadTot []float64
	linkDelay, linkUtil   []float64
	droppedT              float64
	res                   Result

	// Scratch.
	affD, affT     []int // destinations needing an SPF repair
	dagD, dagT     []int // destinations needing only a DAG/load refresh
	chgLinks       []int
	linkMark       []int32
	markEpoch      int32
	needDP         []bool
	resumD, resumT []int32 // region 2's links per class, ascending
	chgMark        []uint8 // changedLinks scratch, all zero between calls

	// Parallel-recompute state (see parallel.go). self is worker 0 — the
	// session's own scratch buffers, the only worker the serial path
	// touches; extra workers are borrowed from the evaluator's shared
	// free list while a recompute's parallel regions run.
	parK    int // worker budget; 1 = serial (the default)
	self    sesWorker
	workers []*sesWorker
	tasks   []destTask
	lamQ    []int // Init's alive-destination list
	lamRun  []int // region 3's task list (u.lamDests or lamQ)
	pr      parRun
	parGo   func() // parBody pre-bound once, so spawns allocate nothing

	// logs[i] is worker slot i's contribution undo log for the last
	// recompute (see refresh.go): the in-place writes of region 1, whose
	// links are region 2's changed-link set and which Revert replays
	// backwards.
	logs [][]contribLog

	// Link changes (see linkbatch.go). batchD and batchT describe the
	// link event driving the current recompute in each class's effective
	// weights — one entry for an Apply weight move, one per effective flip
	// for SetLinkStates — so the classifiers can test it against the
	// pre-change snapshots and Dijkstra-required destinations can repair
	// them (spf.State.RepairBatch) instead of re-running Dijkstra. Init
	// rebases from scratch and demand updates classify every touched
	// destination as DAG-only, so neither reads them.
	lsChanges      []LinkStateChange // effective flips, deduplicated
	lsMark         []int32           // this epoch: link is in the batch
	lsEpoch        int32
	batchD, batchT []spf.LinkChange

	// Demand updates (see demand.go): diffD and diffT group the changed
	// demand entries of each class by destination column; demandUpd
	// marks a recompute driven by them. When an update moves more than
	// denseFrac of the 2n columns, denseCols makes the refresh run
	// without a log and region 2 re-sum every link.
	diffD, diffT demandDiff
	demandUpd    bool
	denseFrac    float64
	denseCols    bool

	// Span tracing (see span.go). spanTrace == 0 (the default) keeps the
	// session span-silent; spRoot is the open update root span and
	// spRegion the region span spawned workers attach their task spans
	// to (written serially before the spawns, read by the workers).
	spanTrace, spanParent uint64
	spRoot                *obsv.Span
	spRegion              *obsv.Span

	undo       undoState
	freeDest   []delayDest
	freeStates []spf.State
	canRevert  bool
	inited     bool
}

// delayDest is one destination's delay-class cache: the SPF snapshot plus
// the materialized ECMP DAG out-adjacency (dagLinks[dagOff[u]:dagOff[u+1]]
// lists node u's on-DAG out-links in adjacency order). The adjacency is
// valid exactly as long as the snapshot is — DAG membership of every link
// is invariant for destinations the classifier reports untouched — and lets
// the delay DP skip the per-out-link membership recomputation that
// dominates its cost.
type delayDest struct {
	state    spf.State
	dagOff   []int32
	dagLinks []int32
}

// undoState holds everything needed to restore the session to its exact
// pre-Apply state, apart from the contributions, which the session's
// per-slot logs restore.
type undoState struct {
	link         int
	prevD, prevT int32
	noop         bool
	res          Result
	droppedT     float64

	affD, affT  []int
	oldDDest    []delayDest
	oldTStates  []spf.State
	oldTDropped []float64

	lamDests         []int
	oldLambda        []float64
	oldViol, oldDisc []int
	loadD, loadT     []float64
	loadTot          []float64
	linkDelay        []float64
	linkUtil         []float64
}

// NewSession returns a session bound to the failure scenario described by
// mask (retained, not copied; nil = normal conditions) and skipNode (the
// node whose traffic is removed, -1 for none). Init must be called before
// Apply. The session evaluates the evaluator's base traffic matrices.
func (e *Evaluator) NewSession(mask *graph.Mask, skipNode int) *Session {
	n, m := e.g.NumNodes(), e.g.NumLinks()
	linkFrom, linkTo := e.g.LinkEndpoints()
	s := &Session{
		e:          e,
		mask:       mask,
		skipNode:   skipNode,
		demD:       e.demD,
		demT:       e.demT,
		w:          NewWeightSetting(m),
		dDest:      make([]delayDest, n),
		tStates:    make([]spf.State, n),
		linkFrom:   linkFrom,
		linkTo:     linkTo,
		dContrib:   make([][]float64, n),
		tContrib:   make([][]float64, n),
		tDropped:   make([]float64, n),
		lambdaT:    make([]float64, n),
		violT:      make([]int, n),
		discT:      make([]int, n),
		loadD:      make([]float64, m),
		loadT:      make([]float64, m),
		loadTot:    make([]float64, m),
		linkDelay:  make([]float64, m),
		linkUtil:   make([]float64, m),
		linkMark:   make([]int32, m),
		chgMark:    make([]uint8, m),
		needDP:     make([]bool, n),
		lsMark:     make([]int32, m),
		parK:       1,
		rebaseFrac: demandRebaseFracDefault,
		denseFrac:  demandDenseFracDefault,
	}
	s.self = *newSesWorker(e.g)
	s.workers = append(s.workers, &s.self)
	s.parGo = s.parBody
	return s
}

// NewScenarioSession returns a session for an arbitrary scenario: the
// failure pattern in mask (retained, not copied; nil = intact topology),
// skipNode's traffic removed (-1 for none), and demand matrices
// overriding the evaluator's base traffic (nil keeps the base matrix of
// that class). PhiNorm stays normalized by the base-traffic min-hop
// cost, matching Evaluator.EvaluateDemands, so results are bit-identical
// to EvaluateDemands under the same weights and scenario.
func (e *Evaluator) NewScenarioSession(mask *graph.Mask, skipNode int, demD, demT *traffic.Matrix) *Session {
	s := e.NewSession(mask, skipNode)
	if demD != nil {
		if demD.Size() != e.g.NumNodes() {
			panic("routing: override traffic matrix size does not match graph")
		}
		s.demD = demD
	}
	if demT != nil {
		if demT.Size() != e.g.NumNodes() {
			panic("routing: override traffic matrix size does not match graph")
		}
		s.demT = demT
	}
	return s
}

// NewLinkFailureSession returns a session for the scenario with directed
// link li down (both directions when both is set), matching
// EvaluateLinkFailure.
func (e *Evaluator) NewLinkFailureSession(li int, both bool) *Session {
	mask := graph.NewMask(e.g)
	if both {
		mask.FailLinkBoth(li)
	} else {
		mask.FailLink(li)
	}
	return e.NewSession(mask, -1)
}

// NewNodeFailureSession returns a session for the scenario with node v
// down and its traffic removed, matching EvaluateNodeFailure.
func (e *Evaluator) NewNodeFailureSession(v int) *Session {
	mask := graph.NewMask(e.g)
	mask.FailNode(v)
	return e.NewSession(mask, v)
}

// Weights returns the session's current weight setting. The caller must
// treat it as read-only; use Apply to change weights.
func (s *Session) Weights() *WeightSetting { return s.w }

// Result returns the evaluation of the current weights.
func (s *Session) Result() Result { return s.res }

// Evaluator returns the evaluator the session is bound to.
func (s *Session) Evaluator() *Evaluator { return s.e }

// alive reports whether destination t participates in this scenario.
func (s *Session) alive(t int) bool {
	return t != s.skipNode && s.mask.NodeAlive(t)
}

// Init (re)bases the session on w with a full from-scratch evaluation,
// filling every cache. It is the rebase used at diversification restarts.
func (s *Session) Init(w *WeightSetting) Result {
	if m := met.Get(); m != nil {
		m.inits.Inc()
	}
	sp := s.beginUpdateSpan("session.init")
	e := s.e
	n := e.g.NumNodes()
	s.w.CopyFrom(w)
	s.recycleUndo()
	s.canRevert = false
	s.inited = true

	clear(s.loadD)
	clear(s.loadT)
	s.droppedT = 0

	// Per-destination fill (SPF runs, DAGs, load contributions),
	// parallelized across the session's workers. The cross-destination
	// load sums happen below, serially and destination-ascending, so the
	// result is bit-identical at any parallelism level.
	s.lamQ = s.lamQ[:0]
	for t := 0; t < n; t++ {
		if !s.alive(t) {
			continue
		}
		s.dContrib[t] = resizeFloats(s.dContrib[t], len(s.loadD))
		s.tContrib[t] = resizeFloats(s.tContrib[t], len(s.loadT))
		s.lamQ = append(s.lamQ, t)
	}
	s.beginPar()
	s.countDestTasks(s.runRegion(regionInit, len(s.lamQ)), len(s.lamQ))
	for _, t := range s.lamQ {
		addLoads(s.loadD, s.dContrib[t])
		addLoads(s.loadT, s.tContrib[t])
		s.droppedT += s.tDropped[t]
	}

	phi, maxUtil, sumUtil, aliveLinks := e.linkPass(s.loadD, s.loadT, s.loadTot, s.linkDelay, s.linkUtil, s.mask)
	phi += s.droppedT * phiDropPenaltyPerMbps

	s.lamRun = s.lamQ
	s.runRegion(regionLambda, len(s.lamRun))
	s.endPar()
	var lambda float64
	violations, disconnected := 0, 0
	for _, t := range s.lamQ {
		lambda += s.lambdaT[t]
		violations += s.violT[t]
		disconnected += s.discT[t]
	}

	s.res = s.assemble(lambda, phi, violations, disconnected, maxUtil, sumUtil, aliveLinks)
	sp.SetAttr("dests", int64(len(s.lamQ)))
	s.endUpdateSpan(sp)
	return s.res
}

// countDestTasks feeds the parallel-vs-serial destination-task counters:
// k is the worker count a region ran with, ntasks its task count.
func (s *Session) countDestTasks(k, ntasks int) {
	if m := met.Get(); m != nil {
		if k > 1 {
			m.destsParallel.Add(int64(ntasks))
		} else {
			m.destsSerial.Add(int64(ntasks))
		}
	}
}

// Apply changes link l's class weights to (wd, wt), incrementally
// re-evaluates, and returns the new Result. Only the most recent Apply
// can be undone with Revert; a subsequent Apply commits the previous one.
func (s *Session) Apply(l int, wd, wt int32) Result {
	if !s.inited {
		panic("routing: Session.Apply before Init")
	}
	if m := met.Get(); m != nil {
		m.updWeight.Inc()
	}
	sp := s.beginUpdateSpan("session.weight")
	sp.SetAttr("link", int64(l))
	s.recycleUndo()
	u := &s.undo

	oldD, oldT := s.w.Delay[l], s.w.Throughput[l]
	csp := sp.Child("session.classify")
	s.batchD = append(s.batchD[:0], spf.LinkChange{Link: l, OldEff: s.effW(l, oldD), NewEff: s.effW(l, wd)})
	s.batchT = append(s.batchT[:0], spf.LinkChange{Link: l, OldEff: s.effW(l, oldT), NewEff: s.effW(l, wt)})
	s.classifyDests()
	csp.End()

	u.link, u.prevD, u.prevT = l, oldD, oldT
	u.res = s.res
	u.droppedT = s.droppedT
	s.w.Set(l, wd, wt)
	s.canRevert = true

	if len(s.affD)+len(s.dagD) == 0 && len(s.affT)+len(s.dagT) == 0 {
		// No destination's routing can change in either class, so loads,
		// delays and every cost term stay exactly as they are.
		u.noop = true
		sp.SetAttr("noop", 1)
		s.endUpdateSpan(sp)
		return s.res
	}
	u.noop = false
	s.recompute(u)
	s.endUpdateSpan(sp)
	return s.res
}

// recompute re-evaluates the session after the affected destinations of
// each class have been classified into s.affD/s.dagD (delay: SPF repair
// vs DAG-only refresh) and s.affT/s.dagT (throughput) — or, for a demand
// update (s.demandUpd), after s.diffD/s.diffT have collected the changed
// demand entries — recording everything it overwrites into u and the
// contribution logs so Revert can restore it. It is the shared tail of
// Apply (weight moves), SetLinkStates (topology moves) and the demand
// updates; the caller must already have committed the triggering change
// (weights, mask or matrices) to the session.
func (s *Session) recompute(u *undoState) {
	e, g := s.e, s.e.g
	n := g.NumNodes()

	// Snapshot link-level aggregates wholesale: O(links) copies are cheap
	// next to even one Dijkstra, and restoring them is exact.
	u.loadD = append(u.loadD[:0], s.loadD...)
	u.loadT = append(u.loadT[:0], s.loadT...)
	u.loadTot = append(u.loadTot[:0], s.loadTot...)
	u.linkDelay = append(u.linkDelay[:0], s.linkDelay...)
	u.linkUtil = append(u.linkUtil[:0], s.linkUtil...)
	u.affD = append(append(u.affD[:0], s.affD...), s.dagD...)
	u.affT = append(append(u.affT[:0], s.affT...), s.dagT...)

	// Serial prep: build region 1's task list. A link change stashes the
	// old SPF snapshots (and delay DAGs) and pops their replacements from
	// the free lists in a fixed order (affD, dagD, affT, dagT — the order
	// Revert indexes the stash by); contributions are refreshed in place.
	// A demand update leaves SPF state alone and needs no stash.
	s.tasks = s.tasks[:0]
	if s.demandUpd {
		for _, t := range s.diffD.cols {
			if s.alive(t) {
				s.tasks = append(s.tasks, destTask{t: int32(t), kind: taskDelayDemand})
			}
		}
		for _, t := range s.diffT.cols {
			if s.alive(t) {
				s.tasks = append(s.tasks, destTask{t: int32(t), kind: taskThruDemand})
			}
		}
	} else {
		for i, t := range u.affD {
			u.oldDDest = append(u.oldDDest, s.dDest[t])
			s.dDest[t] = s.newDest()
			kind := taskDelayFull
			if i >= len(s.affD) {
				kind = taskDelayDAG
			}
			s.tasks = append(s.tasks, destTask{t: int32(t), idx: int32(i), kind: kind})
		}
		for i, t := range u.affT {
			u.oldTStates = append(u.oldTStates, s.tStates[t])
			s.tStates[t] = s.newState()
			u.oldTDropped = append(u.oldTDropped, s.tDropped[t])
			kind := taskThruFull
			if i >= len(s.affT) {
				kind = taskThruDAG
			}
			s.tasks = append(s.tasks, destTask{t: int32(t), idx: int32(i), kind: kind})
		}
	}

	// Every task without an SPF repair (a demand column included) counts
	// as a DAG-only refresh.
	repair := len(s.affD) + len(s.affT)
	if m := met.Get(); m != nil {
		m.destsRepair.Add(int64(repair))
		m.destsDAGOnly.Add(int64(len(s.tasks) - repair))
	}

	// Region 1: refresh the affected destinations. Repair-required ones
	// repair the pre-change snapshot with spf.RepairBatch
	// (Ramalingam–Reps; see spf/batch.go); membership-only ones keep the
	// (provably unchanged) distances. Either way the DAG is patched and
	// the contribution refreshed only where something moved (refresh.go).
	// Each task touches only its destination's slots; its writes go to
	// its worker slot's log.
	s.beginPar()
	root := s.spRoot
	var spfBase spf.RepairStats
	if root != nil {
		root.SetAttr("dests_repair", int64(repair))
		root.SetAttr("dests_dag_only", int64(len(s.tasks)-repair))
		spfBase = s.workerStats()
	}
	s.countDestTasks(s.runRegion(regionDests, len(s.tasks)), len(s.tasks))
	if root != nil {
		d := s.workerStats().Sub(spfBase)
		root.SetAttr("repair_increase", int64(d.Increase))
		root.SetAttr("repair_decrease", int64(d.Decrease))
		root.SetAttr("repair_batch", int64(d.Batch))
		root.SetAttr("repair_noop", int64(d.Noop))
		root.SetAttr("spf_runs", int64(d.Runs))
		root.SetAttr("changed_nodes", int64(d.ChangedNodes))
	}

	// Serial merge: each class's changed links from the logs, sorted. The
	// dense demand path logs nothing and re-sums every link of each
	// touched class instead. Every delay-class refresh also flags its
	// destination for the Λ pass: its DAG or its demand column changed
	// (Λ weighs pairs by demand).
	delayTouched, thruTouched := false, false
	for _, tk := range s.tasks {
		switch tk.kind {
		case taskThruFull, taskThruDAG, taskThruDemand:
			thruTouched = true
		default:
			delayTouched = true
			s.needDP[tk.t] = true
		}
	}
	s.resumD, s.resumT = s.resumD[:0], s.resumT[:0]
	if s.denseCols {
		for li := range s.loadD {
			if delayTouched {
				s.resumD = append(s.resumD, int32(li))
			}
			if thruTouched {
				s.resumT = append(s.resumT, int32(li))
			}
		}
	} else {
		s.changedLinks()
	}

	// Region 2: re-sum the changed links' class loads over all
	// destinations in ascending order — the same order the from-scratch
	// pass adds them, so unchanged terms reproduce the exact same
	// floating-point sums.
	chunks := (len(s.resumD)+resumChunk-1)/resumChunk + (len(s.resumT)+resumChunk-1)/resumChunk
	s.runRegion(regionLinks, chunks)
	if thruTouched {
		var sum float64
		for t := 0; t < n; t++ {
			if !s.alive(t) {
				continue
			}
			sum += s.tDropped[t]
		}
		s.droppedT = sum
	}

	// Aggregate pass over all links (identical loop to the from-scratch
	// path), then find the links whose delay value actually moved.
	phi, maxUtil, sumUtil, aliveLinks := e.linkPass(s.loadD, s.loadT, s.loadTot, s.linkDelay, s.linkUtil, s.mask)
	phi += s.droppedT * phiDropPenaltyPerMbps

	s.chgLinks = s.chgLinks[:0]
	for li := range s.linkDelay {
		if s.linkDelay[li] != u.linkDelay[li] {
			s.chgLinks = append(s.chgLinks, li)
		}
	}

	// The Λ pass must also be redone for destinations whose (unchanged)
	// DAG crosses a link whose delay changed.
	if len(s.chgLinks) > 0 {
		for t := 0; t < n; t++ {
			if s.needDP[t] || !s.alive(t) {
				continue
			}
			dist := s.dDest[t].state.Dist
			for _, li := range s.chgLinks {
				dv := dist[s.linkTo[li]]
				if dv < spf.Inf && dist[s.linkFrom[li]] == dv+int64(s.w.Delay[li]) && s.mask.LinkAlive(li) {
					s.needDP[t] = true
					break
				}
			}
		}
	}
	u.lamDests = u.lamDests[:0]
	u.oldLambda = u.oldLambda[:0]
	u.oldViol = u.oldViol[:0]
	u.oldDisc = u.oldDisc[:0]
	for t := 0; t < n; t++ {
		if !s.needDP[t] {
			continue
		}
		s.needDP[t] = false
		u.lamDests = append(u.lamDests, t)
		u.oldLambda = append(u.oldLambda, s.lambdaT[t])
		u.oldViol = append(u.oldViol, s.violT[t])
		u.oldDisc = append(u.oldDisc, s.discT[t])
	}

	// Region 3: redo the Λ delay DP per flagged destination. Each task
	// writes only its destination's subtotal slots; the final sums below
	// stay serial and destination-ascending.
	s.lamRun = u.lamDests
	s.runRegion(regionLambda, len(s.lamRun))
	s.endPar()

	var lambda float64
	violations, disconnected := 0, 0
	for t := 0; t < n; t++ {
		if !s.alive(t) {
			continue
		}
		lambda += s.lambdaT[t]
		violations += s.violT[t]
		disconnected += s.discT[t]
	}

	s.res = s.assemble(lambda, phi, violations, disconnected, maxUtil, sumUtil, aliveLinks)
}

// changedLinks fills s.resumD and s.resumT with the links the
// contribution logs recorded in each class, ascending: one pass over the
// logs flags them in s.chgMark (bit 1 delay, bit 2 throughput), and one
// pass over the links collects and clears the flags.
func (s *Session) changedLinks() {
	for _, lg := range s.logs {
		for _, c := range lg {
			if c.thru {
				s.chgMark[c.li] |= 2
			} else {
				s.chgMark[c.li] |= 1
			}
		}
	}
	for li, f := range s.chgMark {
		if f == 0 {
			continue
		}
		if f&1 != 0 {
			s.resumD = append(s.resumD, int32(li))
		}
		if f&2 != 0 {
			s.resumT = append(s.resumT, int32(li))
		}
		s.chgMark[li] = 0
	}
}

// nextMarkEpoch advances the linkMark epoch, clearing the marks on
// wraparound.
func (s *Session) nextMarkEpoch() int32 {
	if s.markEpoch == math.MaxInt32 {
		clear(s.linkMark)
		s.markEpoch = 0
	}
	s.markEpoch++
	return s.markEpoch
}

// Revert restores the state before the last Apply exactly. It panics if
// no Apply is pending (Init, a previous Revert, or a later Apply cleared
// it).
func (s *Session) Revert() {
	if !s.canRevert {
		panic("routing: Session.Revert without a preceding Apply")
	}
	s.canRevert = false
	u := &s.undo
	s.w.Set(u.link, u.prevD, u.prevT)
	if u.noop {
		return
	}
	for _, lg := range s.logs {
		for i := len(lg) - 1; i >= 0; i-- {
			c := lg[i]
			if c.thru {
				s.tContrib[c.t][c.li] = c.old
			} else {
				s.dContrib[c.t][c.li] = c.old
			}
		}
	}
	for i, t := range u.affD {
		s.freeDest = append(s.freeDest, s.dDest[t])
		s.dDest[t] = u.oldDDest[i]
	}
	for i, t := range u.affT {
		s.freeStates = append(s.freeStates, s.tStates[t])
		s.tStates[t] = u.oldTStates[i]
		s.tDropped[t] = u.oldTDropped[i]
	}
	u.oldDDest = u.oldDDest[:0]
	u.oldTStates = u.oldTStates[:0]
	u.oldTDropped = u.oldTDropped[:0]
	copy(s.loadD, u.loadD)
	copy(s.loadT, u.loadT)
	copy(s.loadTot, u.loadTot)
	copy(s.linkDelay, u.linkDelay)
	copy(s.linkUtil, u.linkUtil)
	for i, t := range u.lamDests {
		s.lambdaT[t] = u.oldLambda[i]
		s.violT[t] = u.oldViol[i]
		s.discT[t] = u.oldDisc[i]
	}
	s.droppedT = u.droppedT
	s.res = u.res
}

// SetLinkState marks directed link li down (up=false) or restores it
// (up=true), incrementally re-evaluates the session under the changed
// failure state, and returns the new Result — the topology half of an
// online telemetry stream (the other half, demand updates, is
// SetDemands). It is SetLinkStates with a batch of one: the change
// commits immediately, clears any pending Apply undo and cannot itself
// be reverted, and results are bit-identical to a from-scratch
// evaluation under the updated mask.
func (s *Session) SetLinkState(li int, up bool) Result {
	return s.SetLinkStates([]LinkStateChange{{Link: li, Up: up}})
}

// Mask returns the session's failure mask (nil = intact topology). It is
// owned by the session; callers must not mutate it directly — use
// SetLinkState — but may read it to mirror the session's scenario.
func (s *Session) Mask() *graph.Mask { return s.mask }

func (s *Session) assemble(lambda, phi float64, violations, disconnected int, maxUtil, sumUtil float64, aliveLinks int) Result {
	res := Result{
		Cost:         cost.Cost{Lambda: lambda, Phi: phi},
		PhiNorm:      phi / s.e.phiUncap,
		Violations:   violations,
		Disconnected: disconnected,
		MaxUtil:      maxUtil,
	}
	if aliveLinks > 0 {
		res.AvgUtil = sumUtil / float64(aliveLinks)
	}
	return res
}

// recycleUndo returns the previous Apply's stashed buffers (now committed)
// to the free lists.
func (s *Session) recycleUndo() {
	u := &s.undo
	s.freeDest = append(s.freeDest, u.oldDDest...)
	s.freeStates = append(s.freeStates, u.oldTStates...)
	u.oldDDest = u.oldDDest[:0]
	u.oldTStates = u.oldTStates[:0]
	u.oldTDropped = u.oldTDropped[:0]
}

func (s *Session) newState() spf.State {
	if k := len(s.freeStates); k > 0 {
		st := s.freeStates[k-1]
		s.freeStates = s.freeStates[:k-1]
		return st
	}
	return spf.State{}
}

func (s *Session) newDest() delayDest {
	if k := len(s.freeDest); k > 0 {
		d := s.freeDest[k-1]
		s.freeDest = s.freeDest[:k-1]
		return d
	}
	return delayDest{}
}

// destLambdaCached is destLambda over the destination's materialized DAG:
// the same dynamic program as spf's WorstDelays/MeanDelays (identical
// per-node visit order and arithmetic, hence identical bits), minus the
// per-out-link membership recomputation. out is the caller's (worker's)
// per-node delay scratch.
func (s *Session) destLambdaCached(dc *delayDest, out []float64) (lambda float64, violations, disconnected int) {
	e := s.e
	worst := e.metric == WorstPath
	for i := range out {
		out[i] = spf.InfDelay
	}
	dest := dc.state.Dest
	for _, u := range dc.state.Order {
		if u == dest {
			out[u] = 0
			continue
		}
		var acc float64
		k := 0
		for _, li := range dc.dagLinks[dc.dagOff[u]:dc.dagOff[u+1]] {
			d := s.linkDelay[li] + out[s.linkTo[li]]
			if worst {
				if k == 0 || d > acc {
					acc = d
				}
			} else {
				acc += d
			}
			k++
		}
		if k == 0 {
			continue
		}
		if !worst {
			acc /= float64(k)
		}
		out[u] = acc
	}
	return e.lambdaFromDelays(out, s.skipNode, int(dest), s.demD, nil)
}

// SessionBytes estimates the resident size of one Session in bytes, used
// by callers that keep many sessions (one per failure scenario) to bound
// total memory.
func (e *Evaluator) SessionBytes() int64 {
	n := int64(e.g.NumNodes())
	m := int64(e.g.NumLinks())
	// Per destination: two classes of contribution vectors, updated in
	// place (Revert replays a sparse log, so there is one copy).
	contrib := 2 * m * 8
	// Per destination: two classes of SPF snapshots plus the
	// materialized delay-DAG adjacency, doubled: across moves the undo
	// stash and free lists can retain a second copy of each.
	state := 2 * (2*n*12 + m*4 + (n+1)*4)
	// The trailing terms are the link-level arrays (current + undo
	// snapshots) and node-sized scratch.
	return n*(contrib+state) + 21*m*8 + 10*n*8
}
