package scenario

import (
	"repro/internal/graph"
	"repro/internal/traffic"
)

// Event kinds: an Event's Kind holds one of these wire names, the same
// string in the /observe body, the intake queue and the event log.
const (
	// EventLinkDown reports a directed link going down.
	EventLinkDown = "link-down"
	// EventLinkUp reports a directed link coming back up.
	EventLinkUp = "link-up"
	// EventDemand reports a dense demand-matrix update.
	EventDemand = "demand"
	// EventDemandDelta reports a sparse demand update: only the changed
	// (source, destination) entries, applied on top of the demand state
	// currently in effect.
	EventDemandDelta = "demand-delta"
	// EventDemandScale reports a uniform demand update: the base demand
	// matrices of both classes multiplied by Scale. It stays one number
	// through intake and the event log; the selector expands it into
	// dense matrices only where its sessions need them.
	EventDemandScale = "demand-scale"
)

// KnownKind reports whether kind is one of the event kinds above.
func KnownKind(kind string) bool {
	switch kind {
	case EventLinkDown, EventLinkUp, EventDemand, EventDemandDelta, EventDemandScale:
		return true
	}
	return false
}

// Event is one telemetry update in an online stream: a directed link
// going down or coming back, or a demand update (dense matrices, a
// sparse delta or a uniform scale of the base traffic). It is the one
// event representation of the control plane: the /observe body decodes
// into it, the intake queues and coalesces it, the event-driven
// selector consumes it and the event log stores it, JSON key for JSON
// key. Scenario sets render into event streams via Episodes, so the
// same generators that stress offline robustness sweeps drive online
// replay.
type Event struct {
	// Kind is the event's wire name (EventLinkDown, …).
	Kind string `json:"kind"`
	// Link is the directed link index of a link event.
	Link int `json:"link,omitempty"`
	// DemD and DemT replace the base demand matrices on an EventDemand;
	// a nil matrix restores the base traffic of that class. No other
	// kind carries them.
	DemD *traffic.Matrix `json:"demd,omitempty"`
	DemT *traffic.Matrix `json:"demt,omitempty"`
	// DeltaD and DeltaT are the sparse demand updates of an
	// EventDemandDelta, per class (nil = no change in that class),
	// applied on top of the demand state in effect when the event is
	// observed. Consumers route them through the incremental
	// demand-delta path (routing.Session.ApplyDemandDelta) so a surge
	// touching O(1) destination columns costs O(1) column refreshes
	// instead of a full rebase per candidate configuration.
	DeltaD *traffic.Delta `json:"deltad,omitempty"`
	DeltaT *traffic.Delta `json:"deltat,omitempty"`
	// Label records provenance (the generating scenario name, a
	// producer ID); it does not affect evaluation.
	Label string `json:"label,omitempty"`
	// Scale multiplies the base demand matrices of both classes on an
	// EventDemandScale; 0 or 1 restores the base traffic.
	Scale float64 `json:"scale,omitempty"`
	// Network routes the event to a fleet member ("" = the default
	// network). It is a routing key only: the fleet clears it before
	// the event reaches a shard, so it is never logged.
	Network string `json:"network,omitempty"`
}

// DeltaScenario is an optional Scenario extension: scenarios whose
// traffic perturbation is sparse (a hot-spot surge touches O(1) of the
// n destination columns) implement it to expose the perturbation as
// deltas from the base matrices, letting Episodes render demand-delta
// events instead of shipping full matrices. The deltas must agree with
// the dense matrices the scenario's Apply returns: applying them to
// the base state reproduces those matrices bit for bit.
type DeltaScenario interface {
	Scenario
	TrafficDeltas() (dd, dt *traffic.Delta)
}

// Episode is one scenario rendered as a replayable incident: the onset
// events that bring the scenario's perturbation up and the recovery
// events that undo it. Replaying onset then recovery over a base state
// returns exactly to the base state. Episodes are rendered relative to
// the base demand matrices: replayed onto a consumer holding some other
// demand state, dense demand events replace that state wholesale while
// sparse delta events compose with it entry-wise (and recovery then
// returns to the pre-onset state rather than to base) — interleave
// external demand telemetry with episode replay accordingly.
type Episode struct {
	Name            string
	Onset, Recovery []Event
}

// Episodes renders every scenario of a set as an incident episode — the
// event-stream form of the scenario space:
//
//   - failure scenarios become link-down events, one per directed link
//     the scenario kills (a node failure downs the node's incident
//     links; the node's own traffic stays offered and shows up
//     stranded, a strictly harsher stress than the sweep semantics
//     that remove it),
//   - traffic scenarios become one demand-update event, recovered by a
//     base-restoring demand event,
//   - compounds contribute both.
//
// Recovery restores links in reverse onset order. The rendering is
// deterministic: it depends only on the set and the graph.
func Episodes(g *graph.Graph, set Set) []Episode {
	mask := graph.NewMask(g)
	out := make([]Episode, 0, set.Size())
	for _, sc := range set.Scenarios {
		out = append(out, renderEpisode(g, mask, sc))
	}
	return out
}

// EpisodeAt renders only scenario i of the set — O(1) in the set size,
// for replay loops that walk a large set episode by episode.
func EpisodeAt(g *graph.Graph, set Set, i int) Episode {
	return renderEpisode(g, graph.NewMask(g), set.Scenarios[i])
}

func renderEpisode(g *graph.Graph, mask *graph.Mask, sc Scenario) Episode {
	mask.Reset()
	_, demD, demT := sc.Apply(mask)
	ep := Episode{Name: sc.Name()}
	for li := 0; li < g.NumLinks(); li++ {
		if !mask.LinkAlive(li) {
			ep.Onset = append(ep.Onset, Event{Kind: EventLinkDown, Link: li, Label: ep.Name})
		}
	}
	for i := len(ep.Onset) - 1; i >= 0; i-- {
		ep.Recovery = append(ep.Recovery, Event{Kind: EventLinkUp, Link: ep.Onset[i].Link, Label: ep.Name})
	}
	if demD != nil || demT != nil {
		// Sparse rendering when the scenario offers one: onset applies
		// the deltas, recovery applies their exact inverses, returning
		// to the base state bit for bit.
		if ds, ok := sc.(DeltaScenario); ok {
			if dd, dt := ds.TrafficDeltas(); dd.Len()+dt.Len() > 0 {
				ep.Onset = append(ep.Onset, Event{Kind: EventDemandDelta, DeltaD: dd, DeltaT: dt, Label: ep.Name})
				ep.Recovery = append(ep.Recovery, Event{Kind: EventDemandDelta, DeltaD: dd.Inverse(), DeltaT: dt.Inverse(), Label: ep.Name})
				return ep
			}
		}
		ep.Onset = append(ep.Onset, Event{Kind: EventDemand, DemD: demD, DemT: demT, Label: ep.Name})
		ep.Recovery = append(ep.Recovery, Event{Kind: EventDemand, Label: ep.Name})
	}
	return ep
}

// Events flattens Episodes into one stream: each episode's onset
// followed directly by its recovery, in set order.
func Events(g *graph.Graph, set Set) []Event {
	var out []Event
	for _, ep := range Episodes(g, set) {
		out = append(out, ep.Onset...)
		out = append(out, ep.Recovery...)
	}
	return out
}
