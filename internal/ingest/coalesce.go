package ingest

import (
	"repro/internal/scenario"
	"repro/internal/traffic"
)

// CoalesceStats reports what Coalesce collapsed: events in and out,
// plus the number of removed events per class.
type CoalesceStats struct {
	In, Out int
	// Link counts link events collapsed away (superseded flaps of the
	// same link), Demand dense demand events superseded by a later one,
	// Delta demand-delta events merged into the single emitted delta.
	Link, Demand, Delta int
}

// deltaAcc accumulates merged demand-delta entries for one traffic
// class, preserving first-seen (S,T) order for determinism.
type deltaAcc struct {
	order []traffic.DeltaEntry // Old = first seen, New = latest
	index map[[2]int]int
}

func (a *deltaAcc) merge(d *traffic.Delta) {
	if d == nil {
		return
	}
	for _, e := range d.Entries {
		k := [2]int{e.S, e.T}
		if i, ok := a.index[k]; ok {
			a.order[i].New = e.New
			continue
		}
		if a.index == nil {
			a.index = make(map[[2]int]int)
		}
		a.index[k] = len(a.order)
		a.order = append(a.order, e)
	}
}

func (a *deltaAcc) reset() {
	a.order = a.order[:0]
	a.index = nil
}

func (a *deltaAcc) delta() *traffic.Delta {
	if len(a.order) == 0 {
		return nil
	}
	out := make([]traffic.DeltaEntry, len(a.order))
	copy(out, a.order)
	return &traffic.Delta{Entries: out}
}

// Coalesce collapses a batch of telemetry events into an equivalent,
// usually smaller batch: the final state after delivering the output
// sequentially is identical to the final state after delivering the
// input sequentially.
//
//   - Link events coalesce last-wins per link: only the final observed
//     state of each link survives, in first-seen link order.
//   - Dense demand events (EventDemand, and EventDemandScale, which the
//     selector expands to base×scale) stomp everything demand-shaped
//     before them: an earlier dense or scale event or merged delta
//     entries are superseded because SetDemands replaces the whole
//     matrix state.
//   - Demand-delta events merge per (S,T) pair and traffic class: the
//     first Old and the latest New survive, composing on top of the
//     latest dense event (if any).
//
// The output orders link events first, then the surviving dense demand
// event, then one merged delta event. That reordering is safe because
// link state and demand state are independent inputs to the sessions.
//
// Intermediate transitions are dropped by design, so the selector's
// Events counter advances by the number of *surviving* effective
// events, not the number offered to the queue.
func Coalesce(events []scenario.Event) ([]scenario.Event, CoalesceStats) {
	st := CoalesceStats{In: len(events)}
	var (
		linkIdx   map[int]int
		links     []scenario.Event // final state per link, first-seen order
		dense     *scenario.Event
		accD      deltaAcc
		accT      deltaAcc
		nLink     int
		nDense    int
		nDelta    int
		lastLabel string
	)
	for i := range events {
		e := &events[i]
		switch e.Kind {
		case scenario.EventLinkDown, scenario.EventLinkUp:
			nLink++
			if j, ok := linkIdx[e.Link]; ok {
				links[j] = *e
				continue
			}
			if linkIdx == nil {
				linkIdx = make(map[int]int)
			}
			linkIdx[e.Link] = len(links)
			links = append(links, *e)
		case scenario.EventDemand, scenario.EventDemandScale:
			nDense++
			ev := *e
			dense = &ev
			// A dense event replaces the whole demand state, so any
			// deltas accumulated before it are superseded.
			accD.reset()
			accT.reset()
		case scenario.EventDemandDelta:
			nDelta++
			accD.merge(e.DeltaD)
			accT.merge(e.DeltaT)
			lastLabel = e.Label
		}
	}
	out := make([]scenario.Event, 0, len(links)+2)
	out = append(out, links...)
	if dense != nil {
		out = append(out, *dense)
		st.Demand = nDense - 1
	}
	if d, t := accD.delta(), accT.delta(); d != nil || t != nil {
		out = append(out, scenario.Event{
			Kind:   scenario.EventDemandDelta,
			DeltaD: d,
			DeltaT: t,
			Label:  lastLabel,
		})
		st.Delta = nDelta - 1
	} else {
		st.Delta = nDelta
	}
	st.Link = nLink - len(links)
	st.Out = len(out)
	return out, st
}
