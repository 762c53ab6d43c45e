package ingest

import (
	"reflect"
	"testing"

	"repro/internal/scenario"
	"repro/internal/traffic"
)

func linkEvent(link int, up bool) scenario.Event {
	k := scenario.EventLinkDown
	if up {
		k = scenario.EventLinkUp
	}
	return scenario.Event{Kind: k, Link: link}
}

func deltaEvent(entries ...traffic.DeltaEntry) scenario.Event {
	return scenario.Event{Kind: scenario.EventDemandDelta,
		DeltaT: &traffic.Delta{Entries: entries}}
}

func TestCoalesceLinkLastWins(t *testing.T) {
	in := []scenario.Event{
		linkEvent(3, false), // down
		linkEvent(7, false),
		linkEvent(3, true), // back up: supersedes the down
		linkEvent(7, false),
		linkEvent(3, false), // down again: final state
	}
	out, st := Coalesce(in)
	want := []scenario.Event{linkEvent(3, false), linkEvent(7, false)}
	if !reflect.DeepEqual(out, want) {
		t.Fatalf("coalesced = %+v, want %+v", out, want)
	}
	if st.In != 5 || st.Out != 2 || st.Link != 3 || st.Demand != 0 || st.Delta != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestCoalesceDeltaMerge(t *testing.T) {
	in := []scenario.Event{
		deltaEvent(traffic.DeltaEntry{S: 0, T: 2, Old: 1, New: 5}),
		deltaEvent(traffic.DeltaEntry{S: 0, T: 2, Old: 5, New: 9},
			traffic.DeltaEntry{S: 4, T: 1, Old: 2, New: 3}),
		deltaEvent(traffic.DeltaEntry{S: 0, T: 2, Old: 9, New: 7}),
	}
	out, st := Coalesce(in)
	if len(out) != 1 || out[0].Kind != scenario.EventDemandDelta {
		t.Fatalf("coalesced = %+v", out)
	}
	// Per (S,T): first Old, latest New; first-seen order.
	want := []traffic.DeltaEntry{
		{S: 0, T: 2, Old: 1, New: 7},
		{S: 4, T: 1, Old: 2, New: 3},
	}
	if !reflect.DeepEqual(out[0].DeltaT.Entries, want) {
		t.Fatalf("merged entries = %+v, want %+v", out[0].DeltaT.Entries, want)
	}
	if out[0].DeltaD != nil {
		t.Fatalf("spurious delay-class delta %+v", out[0].DeltaD)
	}
	if st.Delta != 2 {
		t.Fatalf("stats %+v", st)
	}
}

func TestCoalesceDenseStompsDeltas(t *testing.T) {
	demD := traffic.NewMatrix(4)
	dense := scenario.Event{Kind: scenario.EventDemand, DemD: demD}
	in := []scenario.Event{
		deltaEvent(traffic.DeltaEntry{S: 0, T: 2, Old: 1, New: 5}), // superseded by dense
		{Kind: scenario.EventDemand},                               // superseded by later dense
		dense,
		deltaEvent(traffic.DeltaEntry{S: 1, T: 3, Old: 0, New: 2}), // composes on top
		linkEvent(1, false),
	}
	out, st := Coalesce(in)
	if len(out) != 3 {
		t.Fatalf("coalesced = %+v", out)
	}
	// Links first, then the surviving dense event, then the merged delta.
	if out[0] != linkEvent(1, false) {
		t.Fatalf("out[0] = %+v", out[0])
	}
	if out[1].Kind != scenario.EventDemand || out[1].DemD != demD {
		t.Fatalf("out[1] = %+v", out[1])
	}
	if out[2].Kind != scenario.EventDemandDelta ||
		!reflect.DeepEqual(out[2].DeltaT.Entries, []traffic.DeltaEntry{{S: 1, T: 3, Old: 0, New: 2}}) {
		t.Fatalf("out[2] = %+v", out[2])
	}
	if st.Demand != 1 || st.Delta != 1 || st.Link != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestCoalesceScaleStompsLikeDense: a demand-scale event supersedes
// earlier dense events and deltas, and a later dense event supersedes
// it, exactly as between two dense events.
func TestCoalesceScaleStompsLikeDense(t *testing.T) {
	scale := scenario.Event{Kind: scenario.EventDemandScale, Scale: 1.5}
	in := []scenario.Event{
		{Kind: scenario.EventDemand, DemD: traffic.NewMatrix(4)},   // superseded by scale
		deltaEvent(traffic.DeltaEntry{S: 0, T: 2, Old: 1, New: 5}), // superseded by scale
		scale,
		deltaEvent(traffic.DeltaEntry{S: 1, T: 3, Old: 0, New: 2}), // composes on top
	}
	out, st := Coalesce(in)
	if len(out) != 2 || out[0] != scale || out[1].Kind != scenario.EventDemandDelta || out[1].DeltaT.Len() != 1 {
		t.Fatalf("coalesced = %+v", out)
	}
	if st.Demand != 1 || st.Delta != 1 {
		t.Fatalf("stats %+v", st)
	}
	out, _ = Coalesce(append(in, scenario.Event{Kind: scenario.EventDemand}))
	if len(out) != 1 || out[0].Kind != scenario.EventDemand {
		t.Fatalf("dense after scale: coalesced = %+v", out)
	}
}

func TestCoalesceEmptyAndSingle(t *testing.T) {
	if out, st := Coalesce(nil); len(out) != 0 || st.In != 0 || st.Out != 0 {
		t.Fatalf("nil input: %v %+v", out, st)
	}
	in := []scenario.Event{linkEvent(2, false)}
	out, st := Coalesce(in)
	if !reflect.DeepEqual(out, in) || st.Out != 1 || st.Link != 0 {
		t.Fatalf("single input: %v %+v", out, st)
	}
}
