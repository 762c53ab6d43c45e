package ctrl

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/obsv"
	"repro/internal/routing"
	"repro/internal/scenario"
	"repro/internal/traffic"
)

// Selector is the event-driven half of the control plane: it tracks the
// network's current conditions (which links are down, which demand
// matrices are in effect) through a telemetry stream and keeps one
// persistent routing.Session per library configuration, so every event
// re-scores all candidates incrementally — a link event touches only
// the destinations whose routing it can change, per candidate, and a
// demand event only the destination columns whose demands actually
// moved (sparse demand-delta events never materialize full matrices at
// all) — and Advise is a constant-time scan of cached, bit-exact
// results.
//
// A Selector is not safe for concurrent use; callers serialize access
// (cmd/dtrd wraps one in a mutex).
type Selector struct {
	ev       *routing.Evaluator
	lib      *Library
	sessions []*routing.Session
	down     []bool
	ndown    int
	// demD/demT are the demand matrices currently in effect (nil = base
	// traffic of that class). The owns flags report whether the selector
	// holds private copies: demand-delta events mutate the current
	// state, so matrices adopted from EventDemand payloads are cloned
	// before the first delta touches them.
	demD, demT         *traffic.Matrix
	ownsDemD, ownsDemT bool
	events             int
	// Span causality: the trace and root-span IDs of the most recent
	// traced Observe fan-out, so Advise and the migration planner can
	// link their decisions to the telemetry event that prompted them.
	// Zero while span recording is disabled.
	lastTrace, lastRoot uint64
	// lastViol is the best candidate's violation count at the previous
	// Advise, so SLA flight captures fire on degradation, not on every
	// advise of a persisting violation.
	lastViol int
}

// NewSelector builds a selector over the library, basing every
// candidate session on the intact topology and base traffic.
func NewSelector(ev *routing.Evaluator, lib *Library) (*Selector, error) {
	if lib.Size() == 0 {
		return nil, fmt.Errorf("ctrl: empty library")
	}
	m := ev.Graph().NumLinks()
	if lib.Links() != m {
		return nil, fmt.Errorf("ctrl: library covers %d links, network has %d", lib.Links(), m)
	}
	s := &Selector{
		ev:   ev,
		lib:  lib,
		down: make([]bool, m),
	}
	s.sessions = make([]*routing.Session, lib.Size())
	for i, e := range lib.Entries {
		ses := ev.NewScenarioSession(graph.NewMask(ev.Graph()), -1, nil, nil)
		ses.Init(e.W)
		s.sessions[i] = ses
	}
	return s, nil
}

// SetParallelism sets the per-session recompute worker budget
// (routing.Session.SetParallelism) of every candidate session: k <= 0
// means GOMAXPROCS, 1 (the default) keeps each session serial. Results
// are bit-identical at every setting. Observe already fans the k
// candidate sessions out one-per-goroutine, so per-session workers pay
// off when the library is small relative to the machine — the two
// levels multiply.
func (s *Selector) SetParallelism(k int) {
	for _, ses := range s.sessions {
		ses.SetParallelism(k)
	}
}

// Library returns the library the selector serves.
func (s *Selector) Library() *Library { return s.lib }

// Events returns the number of telemetry events observed.
func (s *Selector) Events() int { return s.events }

// DownLinks returns the directed links currently marked down, ascending.
func (s *Selector) DownLinks() []int {
	out := make([]int, 0, s.ndown)
	for li, d := range s.down {
		if d {
			out = append(out, li)
		}
	}
	return out
}

// Demands returns the demand overrides currently in effect (nil = base
// traffic of that class; after demand-delta events, a selector-owned
// matrix holding the accumulated state). Callers must treat the
// matrices as read-only.
func (s *Selector) Demands() (demD, demT *traffic.Matrix) { return s.demD, s.demT }

// Mask returns a fresh mask reflecting the selector's current link
// state, for callers (the migration planner, oracle audits) that need
// the conditions independently of the candidate sessions.
func (s *Selector) Mask() *graph.Mask {
	mask := graph.NewMask(s.ev.Graph())
	for li, d := range s.down {
		if d {
			mask.FailLink(li)
		}
	}
	return mask
}

// Observe folds one telemetry event into every candidate session. Link
// events re-score incrementally (SetLinkState). Dense demand events —
// and demand-scale events, expanded here to base×scale — diff against
// the current matrices inside each session (SetDemands), so only
// changed destination columns recompute; sparse demand-delta
// events skip the dense matrices entirely (ApplyDemandDelta). No-op
// events — duplicate link states, demand matrices equal to the ones in
// effect, deltas restating current values — are deduplicated here and
// never fan out to the k sessions.
func (s *Selector) Observe(e scenario.Event) error {
	return s.observe(e, 0, 0)
}

// Validate checks an event's shape against the network — link index in
// range, demand matrices sized to the node count and carried only by a
// dense demand event, a finite non-negative scale, delta entries valid
// and finite — without touching any state. ObserveBatch validates a
// whole batch upfront so a malformed event aborts before any mutation.
func (s *Selector) Validate(e scenario.Event) error {
	n := s.ev.Graph().NumNodes()
	if e.Kind != scenario.EventDemand && (e.DemD != nil || e.DemT != nil) {
		return fmt.Errorf("ctrl: %s event carries dense demand matrices (demd/demt)", e.Kind)
	}
	switch e.Kind {
	case scenario.EventLinkDown, scenario.EventLinkUp:
		if e.Link < 0 || e.Link >= len(s.down) {
			return fmt.Errorf("ctrl: link %d out of range [0,%d)", e.Link, len(s.down))
		}
	case scenario.EventDemand:
		if e.DemD != nil && e.DemD.Size() != n {
			return fmt.Errorf("ctrl: demand matrix size %d does not match %d nodes", e.DemD.Size(), n)
		}
		if e.DemT != nil && e.DemT.Size() != n {
			return fmt.Errorf("ctrl: demand matrix size %d does not match %d nodes", e.DemT.Size(), n)
		}
	case scenario.EventDemandScale:
		if !(e.Scale >= 0) || math.IsInf(e.Scale, 1) {
			return fmt.Errorf("ctrl: demand scale %g is not a finite non-negative number", e.Scale)
		}
	case scenario.EventDemandDelta:
		if err := e.DeltaD.Validate(n); err != nil {
			return fmt.Errorf("ctrl: %w", err)
		}
		if err := e.DeltaT.Validate(n); err != nil {
			return fmt.Errorf("ctrl: %w", err)
		}
	default:
		return fmt.Errorf("ctrl: unknown event kind %q", e.Kind)
	}
	return nil
}

// ObserveBatch folds an ordered batch of telemetry events into every
// candidate session, validating the whole batch before any mutation
// (all-or-nothing on malformed input). Runs of consecutive link events
// collapse into one SetLinkStates fan-out per candidate (one
// classification + one multi-link repair pass per affected
// destination); demand events flush any pending links first and then
// take the same incremental paths as Observe, so the final selector
// and session state is bit-identical to observing the events one at a
// time, in order. The trace/parent span IDs (zero when untraced) root
// the batch's spans under the caller's trace — the ingest delivery
// span, for batches arriving through internal/ingest.
func (s *Selector) ObserveBatch(events []scenario.Event, trace, parent uint64) error {
	for i := range events {
		if err := s.Validate(events[i]); err != nil {
			return fmt.Errorf("ctrl: batch event %d: %w", i, err)
		}
	}
	switch len(events) {
	case 0:
		return nil
	case 1:
		return s.observe(events[0], trace, parent)
	}
	m := met.Get()
	var batchSpan *obsv.Span
	if m != nil {
		batchSpan = m.reg.Spans().StartAt("observe.batch", trace, parent)
		batchSpan.SetAttr("events", int64(len(events)))
		trace, parent = batchSpan.TraceID(), batchSpan.ID()
	}
	pend := events[:0:0]
	for i := range events {
		e := events[i]
		if e.Kind == scenario.EventLinkDown || e.Kind == scenario.EventLinkUp {
			pend = append(pend, e)
			continue
		}
		s.flushLinks(m, pend, trace, parent)
		pend = pend[:0]
		if err := s.observe(e, trace, parent); err != nil {
			batchSpan.End()
			return err
		}
	}
	s.flushLinks(m, pend, trace, parent)
	batchSpan.End()
	return nil
}

// flushLinks applies a run of link events as one SetLinkStates fan-out
// per candidate. Events restating the already-observed link state
// deduplicate exactly as the sequential path would, and the Events
// counter advances by the number of effective transitions; a run of
// one routes through the single-event path (class "link").
func (s *Selector) flushLinks(m *metrics, pend []scenario.Event, trace, parent uint64) {
	switch len(pend) {
	case 0:
		return
	case 1:
		s.observe(pend[0], trace, parent) // pre-validated: cannot fail
		return
	}
	var t0 time.Time
	if m != nil {
		t0 = time.Now()
	}
	changes := make([]routing.LinkStateChange, 0, len(pend))
	eff := 0
	for _, e := range pend {
		up := e.Kind == scenario.EventLinkUp
		if s.down[e.Link] != up {
			if m != nil {
				m.dedupLink.Inc()
			}
			continue // already in the observed state
		}
		s.down[e.Link] = !up
		if up {
			s.ndown--
		} else {
			s.ndown++
		}
		eff++
		changes = append(changes, routing.LinkStateChange{Link: e.Link, Up: up})
	}
	if eff == 0 {
		return
	}
	s.events += eff
	root := s.beginObserve(m, "observe.link_batch", trace, parent)
	root.SetAttr("links", int64(len(changes)))
	s.each(func(ses *routing.Session) { ses.SetLinkStates(changes) })
	root.End()
	if m != nil {
		dur := time.Since(t0)
		m.observeLinkBatch.Observe(dur.Seconds())
		msg := fmt.Sprintf("link batch (%d changes, down links: %d) trace=%d", len(changes), s.ndown, s.lastTrace)
		m.trace.Record("observe", msg)
		s.maybeFlight(m, "observe", msg, dur)
	}
}

// observe is Observe with an explicit span context: trace/parent root
// this event's spans under a caller-owned trace (the ingest delivery
// span, the enclosing observe.batch span); both zero starts a fresh
// trace per event, which is the Observe behavior.
func (s *Selector) observe(e scenario.Event, trace, parent uint64) error {
	if err := s.Validate(e); err != nil {
		return err
	}
	m := met.Get()
	var t0 time.Time
	if m != nil {
		t0 = time.Now()
	}
	if e.Kind == scenario.EventDemandScale {
		e = s.scaled(e)
	}
	switch e.Kind {
	case scenario.EventLinkDown, scenario.EventLinkUp:
		up := e.Kind == scenario.EventLinkUp
		if s.down[e.Link] != up {
			if m != nil {
				m.dedupLink.Inc()
			}
			return nil // already in the observed state
		}
		s.down[e.Link] = !up
		if up {
			s.ndown--
		} else {
			s.ndown++
		}
		root := s.beginObserve(m, "observe.link", trace, parent)
		root.SetAttr("link", int64(e.Link))
		if up {
			root.SetAttr("up", 1)
		}
		s.each(func(ses *routing.Session) { ses.SetLinkState(e.Link, up) })
		root.End()
		if m != nil {
			dur := time.Since(t0)
			m.observeLink.Observe(dur.Seconds())
			msg := fmt.Sprintf("link %d up=%v (down links: %d) trace=%d", e.Link, up, s.ndown, s.lastTrace)
			m.trace.Record("observe", msg)
			s.maybeFlight(m, "observe", msg, dur)
		}
	case scenario.EventDemand:
		if s.effectiveD().Equal(s.effective(e.DemD, s.ev.DemandDelay())) &&
			s.effectiveT().Equal(s.effective(e.DemT, s.ev.DemandThroughput())) {
			if m != nil {
				m.dedupDem.Inc()
			}
			return nil // matrices equal the state in effect: skip the fan-out
		}
		s.demD, s.demT = e.DemD, e.DemT
		s.ownsDemD, s.ownsDemT = false, false
		root := s.beginObserve(m, "observe.demand", trace, parent)
		s.each(func(ses *routing.Session) { ses.SetDemands(e.DemD, e.DemT) })
		root.End()
		if m != nil {
			dur := time.Since(t0)
			m.observeDem.Observe(dur.Seconds())
			msg := fmt.Sprintf("dense demand update trace=%d", s.lastTrace)
			m.trace.Record("observe", msg)
			s.maybeFlight(m, "observe", msg, dur)
		}
	case scenario.EventDemandDelta:
		chgD := deltaChanges(s.effectiveD(), e.DeltaD)
		chgT := deltaChanges(s.effectiveT(), e.DeltaT)
		if !chgD && !chgT {
			if m != nil {
				m.dedupDelta.Inc()
			}
			return nil // every entry restates the current value
		}
		if chgD {
			if !s.ownsDemD {
				s.demD = s.effectiveD().Clone()
				s.ownsDemD = true
			}
			s.demD.ApplyDelta(e.DeltaD)
		}
		if chgT {
			if !s.ownsDemT {
				s.demT = s.effectiveT().Clone()
				s.ownsDemT = true
			}
			s.demT.ApplyDelta(e.DeltaT)
		}
		root := s.beginObserve(m, "observe.demand_delta", trace, parent)
		root.SetAttr("entries", int64(e.DeltaD.Len()+e.DeltaT.Len()))
		s.each(func(ses *routing.Session) { ses.ApplyDemandDelta(e.DeltaD, e.DeltaT) })
		root.End()
		if m != nil {
			dur := time.Since(t0)
			m.observeDelta.Observe(dur.Seconds())
			msg := fmt.Sprintf("demand delta (%d+%d entries) trace=%d", e.DeltaD.Len(), e.DeltaT.Len(), s.lastTrace)
			m.trace.Record("observe", msg)
			s.maybeFlight(m, "observe", msg, dur)
		}
	}
	s.events++
	return nil
}

// Restore rebases a freshly built selector onto checkpointed
// conditions: the listed directed links down, the given per-class
// demand overrides in effect (nil = the base traffic of that class),
// and the events counter at events. The selector takes ownership of
// non-nil matrices — callers must pass private copies. The conditions
// fold into every candidate session through the same incremental paths
// a live telemetry stream takes, so the restored candidate scores are
// bit-identical to those of a selector that observed the original
// events (internal/fleet builds its crash recovery on this). Restore
// must run before any telemetry: calling it on a selector that already
// consumed events corrupts the down-link bookkeeping.
func (s *Selector) Restore(down []int, demD, demT *traffic.Matrix, events int) error {
	if s.events != 0 || s.ndown != 0 || s.demD != nil || s.demT != nil {
		return fmt.Errorf("ctrl: Restore on a selector that already consumed telemetry")
	}
	n := s.ev.Graph().NumNodes()
	if demD != nil && demD.Size() != n {
		return fmt.Errorf("ctrl: restored demand matrix size %d does not match %d nodes", demD.Size(), n)
	}
	if demT != nil && demT.Size() != n {
		return fmt.Errorf("ctrl: restored demand matrix size %d does not match %d nodes", demT.Size(), n)
	}
	if events < 0 {
		return fmt.Errorf("ctrl: negative restored event count %d", events)
	}
	for _, li := range down {
		if li < 0 || li >= len(s.down) {
			return fmt.Errorf("ctrl: restored down link %d out of range [0,%d)", li, len(s.down))
		}
	}
	changes := make([]routing.LinkStateChange, 0, len(down))
	for _, li := range down {
		if s.down[li] {
			continue // duplicate in the checkpoint: one transition suffices
		}
		s.down[li] = true
		s.ndown++
		changes = append(changes, routing.LinkStateChange{Link: li, Up: false})
	}
	if len(changes) > 0 {
		s.each(func(ses *routing.Session) { ses.SetLinkStates(changes) })
	}
	if demD != nil || demT != nil {
		// Mirror the dense-event path: sessions alias the matrices passed
		// to SetDemands, so the selector must not claim in-place mutation
		// rights over them — a later delta clones first (clone-on-write),
		// exactly as after an EventDemand.
		s.demD, s.demT = demD, demT
		s.ownsDemD, s.ownsDemT = false, false
		s.each(func(ses *routing.Session) { ses.SetDemands(demD, demT) })
	}
	s.events = events
	return nil
}

// TraceContext returns the trace and root-span IDs of the most recent
// traced Observe fan-out (both zero while span recording is disabled),
// so callers can attach downstream decision spans — the migration plan,
// the apply — to the same trace.
func (s *Selector) TraceContext() (trace, root uint64) { return s.lastTrace, s.lastRoot }

// beginObserve opens the root span of one effective (non-deduplicated)
// telemetry event and points every candidate session's span context at
// it, so the whole fan-out lands in one trace. With a nonzero
// trace/parent the span joins the caller's trace instead of rooting a
// fresh one. Returns nil when spans are disabled.
func (s *Selector) beginObserve(m *metrics, name string, trace, parent uint64) *obsv.Span {
	if m == nil {
		return nil
	}
	root := m.reg.Spans().StartAt(name, trace, parent)
	if root == nil {
		return nil
	}
	s.lastTrace, s.lastRoot = root.TraceID(), root.ID()
	for _, ses := range s.sessions {
		ses.SetSpanContext(s.lastTrace, s.lastRoot)
	}
	return root
}

// maybeFlight captures a flight record of the event's span tree when
// its fan-out latency trips the recorder's threshold.
func (s *Selector) maybeFlight(m *metrics, kind, detail string, dur time.Duration) {
	fr := m.reg.Flight()
	if !fr.ExceedsLatency(dur) {
		return
	}
	fr.Capture(obsv.FlightRecord{
		Trace:    s.lastTrace,
		Kind:     kind,
		Reason:   "latency",
		Detail:   detail,
		Duration: dur,
		Spans:    m.reg.Spans().TraceSpans(s.lastTrace),
	})
}

// scaled renders a demand-scale event as the dense demand event it
// stands for: the base matrices of both classes times Scale, or nil
// (base traffic) at 0 or 1.
func (s *Selector) scaled(e scenario.Event) scenario.Event {
	dense := scenario.Event{Kind: scenario.EventDemand, Label: e.Label}
	if e.Scale != 0 && e.Scale != 1 {
		dense.DemD = s.ev.DemandDelay().Clone().Scale(e.Scale)
		dense.DemT = s.ev.DemandThroughput().Clone().Scale(e.Scale)
	}
	return dense
}

// effective resolves a possibly-nil override matrix to the matrix in
// effect (nil means the base traffic of that class).
func (s *Selector) effective(m, base *traffic.Matrix) *traffic.Matrix {
	if m == nil {
		return base
	}
	return m
}

func (s *Selector) effectiveD() *traffic.Matrix { return s.effective(s.demD, s.ev.DemandDelay()) }
func (s *Selector) effectiveT() *traffic.Matrix { return s.effective(s.demT, s.ev.DemandThroughput()) }

// deltaChanges reports whether applying d to cur would change any
// value.
func deltaChanges(cur *traffic.Matrix, d *traffic.Delta) bool {
	if d == nil {
		return false
	}
	for _, e := range d.Entries {
		if cur.At(e.S, e.T) != e.New {
			return true
		}
	}
	return false
}

// each applies fn to every candidate session, fanning out across
// goroutines: the sessions are independent, and each owns all state fn
// touches, so the result is deterministic regardless of scheduling.
func (s *Selector) each(fn func(*routing.Session)) {
	if len(s.sessions) == 1 {
		fn(s.sessions[0])
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(s.sessions))
	for _, ses := range s.sessions {
		go func() {
			defer wg.Done()
			fn(ses)
		}()
	}
	wg.Wait()
}

// Result returns candidate i's evaluation under the current conditions.
func (s *Selector) Result(i int) routing.Result { return s.sessions[i].Result() }

// Advise returns the index and evaluation of the library configuration
// with the best objective (lexicographic ⟨Λ, Φ⟩) under the current
// conditions; ties go to the lowest index. The evaluation is
// bit-identical to a from-scratch Evaluator run of that configuration
// under the selector's mask and demands.
func (s *Selector) Advise() (int, routing.Result) {
	m := met.Get()
	var sp *obsv.Span
	if m != nil {
		sp = m.reg.Spans().StartAt("advise", s.lastTrace, s.lastRoot)
	}
	best := 0
	bestRes := s.sessions[0].Result()
	for i := 1; i < len(s.sessions); i++ {
		if res := s.sessions[i].Result(); res.Cost.Less(bestRes.Cost) {
			best, bestRes = i, res
		}
	}
	sp.SetAttr("config", int64(best))
	sp.SetAttr("violations", int64(bestRes.Violations))
	sp.End()
	if m != nil {
		m.advises.Inc()
		msg := fmt.Sprintf("config %d (violations=%d maxUtil=%.3f) trace=%d",
			best, bestRes.Violations, bestRes.MaxUtil, s.lastTrace)
		m.trace.Record("advise", msg)
		if bestRes.Violations > 0 && bestRes.Violations > s.lastViol {
			fr := m.reg.Flight()
			fr.Capture(obsv.FlightRecord{
				Trace:  s.lastTrace,
				Kind:   "advise",
				Reason: "sla",
				Detail: msg,
				Spans:  m.reg.Spans().TraceSpans(s.lastTrace),
			})
		}
	}
	s.lastViol = bestRes.Violations
	return best, bestRes
}
