package routing

// Parallel session recompute: the per-destination work of Init and
// recompute — SPF repairs, DAG patches, load-contribution refreshes and
// the Λ delay DP — is embarrassingly parallel (every destination touches
// only its own caches), while every cross-destination floating-point sum
// keeps the ascending destination order of the from-scratch pass.
// Results are therefore bit-identical at any parallelism level: the
// parallel regions only fill per-destination (or per-link) slots, and
// each link's load is still summed 0 + c₀ + c₁ + … in ascending t.
//
// The structure is three regions per recompute, with serial glue between
// them:
//
//	prep (serial)      stash SPF snapshots, pop free-list buffers, build tasks
//	region 1           per-destination seeded refresh (repair, DAG patch,
//	                   in-place contributions, logged per worker slot)
//	merge (serial)     the logs' changed links per class, sorted
//	region 2           changed-link re-sum, destination-major per link chunk
//	glue (serial)      dropped-demand sum, linkPass, delay diff, needDP
//	region 3           per-destination Λ delay DP
//	tail (serial)      final t-ascending Λ/violation sums
//
// Worker scratch (a private spf.Workspace plus demand, delay and
// seeded-refresh buffers) comes from a free list on the Evaluator, so the
// many sessions an optimizer or selector keeps share one pool and
// steady-state operation allocates nothing. The contribution logs are
// the session's own, one per worker slot, because Revert replays them
// after the workers have gone back to the pool.

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/spf"
)

// sesWorker is one worker's private scratch for the parallel regions.
// Worker 0 is the session's own buffers (the serial path uses only it);
// extra workers are borrowed from the evaluator's shared free list for
// the duration of one recompute.
type sesWorker struct {
	ws     *spf.Workspace
	demCol []float64
	delays []float64

	// Seeded-refresh scratch (see refresh.go): epoch-marked seed and
	// dirty flags per node, the seed and moved-node lists, and one node's
	// on-DAG out-links (sized to the largest out-degree).
	seedMark, dirty []int32
	epoch           int32
	seeds, moved    []int32
	dagOut          []int32
}

func newSesWorker(g *graph.Graph) *sesWorker {
	n := g.NumNodes()
	maxDeg := 0
	for v := 0; v < n; v++ {
		maxDeg = max(maxDeg, g.OutDegree(v))
	}
	return &sesWorker{
		ws:       spf.NewWorkspace(g),
		demCol:   make([]float64, n),
		delays:   make([]float64, n),
		seedMark: make([]int32, n),
		dirty:    make([]int32, n),
		dagOut:   make([]int32, maxDeg),
	}
}

// getSesWorker pops a worker from the evaluator's shared free list,
// growing the pool on first use. Safe for concurrent sessions.
func (e *Evaluator) getSesWorker() *sesWorker {
	e.wkMu.Lock()
	if k := len(e.wkFree); k > 0 {
		wk := e.wkFree[k-1]
		e.wkFree = e.wkFree[:k-1]
		e.wkMu.Unlock()
		return wk
	}
	e.wkMu.Unlock()
	return newSesWorker(e.g)
}

// putSesWorkers returns borrowed workers to the shared free list.
func (e *Evaluator) putSesWorkers(wks []*sesWorker) {
	e.wkMu.Lock()
	e.wkFree = append(e.wkFree, wks...)
	e.wkMu.Unlock()
}

// SetParallelism sets how many workers the session's recomputes may use
// for their per-destination and per-link regions. k <= 0 means
// runtime.GOMAXPROCS(0); 1 (the default) keeps everything on the calling
// goroutine. Results are bit-identical at every setting — parallelism
// changes wall-clock time, never bits — so it can be flipped at any
// point, including between an Apply and its Revert.
func (s *Session) SetParallelism(k int) {
	if k <= 0 {
		k = runtime.GOMAXPROCS(0)
	}
	s.parK = k
	if m := met.Get(); m != nil {
		m.workers.Set(float64(k))
	}
}

// destTask is one region-1 task: refresh destination t's caches for one
// class. idx indexes the undo stash of the task's class (link changes
// only; a demand update stashes nothing).
type destTask struct {
	t    int32
	idx  int32
	kind int8
}

const (
	taskDelayFull   int8 = iota // repair delay SPF, patch DAG, refresh
	taskDelayDAG                // patch DAG at the batch tails, refresh
	taskThruFull                // repair throughput SPF, refresh
	taskThruDAG                 // refresh from the batch tails
	taskDelayDemand             // refresh from the changed sources
	taskThruDemand              // refresh from the changed sources
)

// resumChunk is the number of links one region-2 task re-sums.
const resumChunk = 128

// Region identifiers for the shared worker loop.
const (
	regionDests  = iota // region 1: s.tasks
	regionInit          // Init's per-destination fill: s.lamQ
	regionLinks         // region 2: per-link load re-sum
	regionLambda        // region 3: Λ delay DP over s.lamRun
)

// parRun is the coordination state of one parallel region: tasks are
// pulled off a single atomic counter, workers are assigned by a second
// one, and the main goroutine participates as worker 0.
type parRun struct {
	region int32
	ntasks int32
	next   atomic.Int32
	widx   atomic.Int32
	wg     sync.WaitGroup
}

// beginPar borrows enough workers for the session's parallelism level
// and empties every contribution log slot: a new recompute commits the
// previous one.
func (s *Session) beginPar() {
	for len(s.workers) < s.parK {
		s.workers = append(s.workers, s.e.getSesWorker())
	}
	for len(s.logs) < len(s.workers) {
		s.logs = append(s.logs, nil)
	}
	for i := range s.logs {
		s.logs[i] = s.logs[i][:0]
	}
}

// endPar returns the borrowed workers to the evaluator's pool.
func (s *Session) endPar() {
	if len(s.workers) > 1 {
		s.e.putSesWorkers(s.workers[1:])
		s.workers = s.workers[:1]
	}
}

// runRegion executes ntasks tasks of the given region across the
// session's workers and returns the number of workers that ran. With one
// worker (or one task) everything stays inline on the calling goroutine;
// otherwise the main goroutine participates as worker 0 and waits for
// the k-1 spawned bodies. Spawning per region (rather than parking
// persistent goroutines) keeps the session single-threaded between
// regions; dead goroutines are recycled by the runtime, so steady-state
// regions allocate nothing.
func (s *Session) runRegion(region, ntasks int) int {
	if ntasks == 0 {
		return 0
	}
	k := len(s.workers)
	if k > ntasks {
		k = ntasks
	}
	// Region span under the open update root (nil when untraced; every
	// span method is a no-op then). Worker task spans exist only when the
	// region actually fans out: serial regions are the worker.
	rsp := s.spRoot.Child(regionSpanNames[region])
	rsp.SetAttr("tasks", int64(ntasks))
	rsp.SetAttr("workers", int64(k))
	s.pr.region = int32(region)
	s.pr.ntasks = int32(ntasks)
	s.pr.next.Store(0)
	if k > 1 {
		s.spRegion = rsp // published before the spawns, cleared after the join
		s.pr.widx.Store(0)
		s.pr.wg.Add(k - 1)
		for i := 1; i < k; i++ {
			// s.parGo is the pre-bound method value: spawning through it
			// (rather than `go s.parBody()`) avoids the per-spawn closure
			// the compiler would otherwise allocate to capture s.
			go s.parGo()
		}
		wsp := rsp.Child("session.worker")
		wsp.SetWorker(0)
		wsp.SetAttr("tasks", int64(s.regionLoop(0)))
		wsp.End()
		s.pr.wg.Wait()
		s.spRegion = nil
	} else {
		s.regionLoop(0)
	}
	rsp.End()
	return k
}

func (s *Session) parBody() {
	i := s.pr.widx.Add(1)
	wsp := s.spRegion.Child("session.worker")
	wsp.SetWorker(int(i))
	wsp.SetAttr("tasks", int64(s.regionLoop(int(i))))
	wsp.End()
	s.pr.wg.Done()
}

// regionLoop pulls tasks off the shared counter for worker slot until
// the region is drained, returning how many tasks this worker ran (the
// busy share its task span reports).
func (s *Session) regionLoop(slot int) int {
	wk := s.workers[slot]
	region, ntasks := s.pr.region, int(s.pr.ntasks)
	done := 0
	for {
		i := int(s.pr.next.Add(1)) - 1
		if i >= ntasks {
			return done
		}
		done++
		switch region {
		case regionDests:
			s.destTaskRun(i, wk, &s.logs[slot])
		case regionInit:
			s.initTaskRun(i, wk)
		case regionLinks:
			s.linkTaskRun(i)
		case regionLambda:
			s.lambdaTaskRun(i, wk)
		}
	}
}

// destTaskRun refreshes one destination's caches for one class (a
// region-1 task). It touches only the task's own per-destination slots,
// the worker's private scratch and the worker slot's log, so tasks run
// concurrently without synchronization. On the dense demand path the
// refresh runs without a log (region 2 re-sums every link instead).
func (s *Session) destTaskRun(i int, wk *sesWorker, log *[]contribLog) {
	tk := s.tasks[i]
	t := int(tk.t)
	u := &s.undo
	g := s.e.g
	if s.denseCols {
		log = nil
	}
	wk.beginRefresh()
	switch tk.kind {
	case taskDelayFull, taskDelayDAG:
		dc := &s.dDest[t]
		old := &u.oldDDest[tk.idx]
		dc.state.CopyFrom(&old.state)
		if tk.kind == taskDelayFull && dc.state.RepairBatch(wk.ws, g, s.w.Delay, s.batchD, s.mask) {
			s.seedMoved(wk, old.state.Dist, dc.state.Dist)
		}
		s.seedBatch(wk, s.batchD)
		slices.Sort(wk.seeds)
		s.buildDAG(dc, old, wk.seeds)
		s.refreshLoads(wk, t, false, s.batchD, log)
	case taskThruFull, taskThruDAG:
		st := &s.tStates[t]
		old := &u.oldTStates[tk.idx]
		st.CopyFrom(old)
		if tk.kind == taskThruFull && st.RepairBatch(wk.ws, g, s.w.Throughput, s.batchT, s.mask) {
			s.seedMoved(wk, old.Dist, st.Dist)
		}
		s.seedBatch(wk, s.batchT)
		s.refreshLoads(wk, t, true, s.batchT, log)
		s.tDropped[t] = s.droppedDemand(t)
	case taskDelayDemand:
		// Distances and DAGs are untouched by demand moves: refresh in
		// place from the column's changed sources.
		s.diffD.seed(wk, t)
		s.refreshLoads(wk, t, false, nil, log)
	case taskThruDemand:
		s.diffT.seed(wk, t)
		s.refreshLoads(wk, t, true, nil, log)
		s.tDropped[t] = s.droppedDemand(t)
	}
}

// initTaskRun fills destination s.lamQ[i]'s caches from scratch: Init's
// per-destination body.
func (s *Session) initTaskRun(i int, wk *sesWorker) {
	t := s.lamQ[i]
	g := s.e.g
	dc := &s.dDest[t]
	// Delay class.
	wk.ws.Run(g, s.w.Delay, t, s.mask)
	wk.ws.Save(&dc.state)
	s.buildDAG(dc, nil, nil)
	demandColumn(s.demD, t, s.skipNode, wk.demCol)
	wk.ws.AccumulateLoadsInto(g, s.w.Delay, wk.demCol, s.mask, s.dContrib[t])
	// Throughput class.
	wk.ws.Run(g, s.w.Throughput, t, s.mask)
	wk.ws.Save(&s.tStates[t])
	demandColumn(s.demT, t, s.skipNode, wk.demCol)
	s.tDropped[t] = wk.ws.AccumulateLoadsInto(g, s.w.Throughput, wk.demCol, s.mask, s.tContrib[t])
}

// linkTaskRun re-sums one chunk of changed links (a region-2 task):
// chunks of s.resumD first, then of s.resumT. The sum is
// destination-major — t is the outer loop — but each link is still
// summed 0 + c₀ + c₁ + … in ascending t, the order the from-scratch pass
// adds them, so unchanged terms reproduce the exact same floating-point
// sums. Each task owns its links' slots; concurrent tasks never touch
// the same memory.
func (s *Session) linkTaskRun(i int) {
	loads, contrib, links := s.loadD, s.dContrib, s.resumD
	if nd := (len(s.resumD) + resumChunk - 1) / resumChunk; i >= nd {
		i -= nd
		loads, contrib, links = s.loadT, s.tContrib, s.resumT
	}
	links = links[i*resumChunk : min((i+1)*resumChunk, len(links))]
	if lo, hi := int(links[0]), int(links[len(links)-1])+1; hi-lo == len(links) {
		// A run of consecutive links (every link, on the dense demand
		// path): index the rows directly.
		run := loads[lo:hi]
		clear(run)
		for t, c := range contrib {
			if !s.alive(t) {
				continue
			}
			for j, x := range c[lo:hi] {
				run[j] += x
			}
		}
		return
	}
	for _, li := range links {
		loads[li] = 0
	}
	for t, c := range contrib {
		if !s.alive(t) {
			continue
		}
		for _, li := range links {
			loads[li] += c[li]
		}
	}
}

// lambdaTaskRun redoes one destination's Λ delay DP (a region-3 task).
func (s *Session) lambdaTaskRun(i int, wk *sesWorker) {
	t := s.lamRun[i]
	lt, vt, dt := s.destLambdaCached(&s.dDest[t], wk.delays)
	s.lambdaT[t], s.violT[t], s.discT[t] = lt, vt, dt
}
