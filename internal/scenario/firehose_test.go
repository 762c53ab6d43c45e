package scenario

import (
	"reflect"
	"testing"
	"time"
)

func firehoseSet(g interface{ NumLinks() int }) Set {
	return Set{Scenarios: []Scenario{
		LinkFailure{Links: []int{0}},
		LinkFailure{Links: []int{1}, Both: true},
		LinkFailure{Links: []int{2, 5}},
	}}
}

func TestFirehoseDeterministic(t *testing.T) {
	g := eventsTestGraph(t)
	cfg := FirehoseConfig{BatchEvents: 4, Repeat: 3, Seed: 42}
	a := Firehose(g, firehoseSet(g), cfg)
	b := Firehose(g, firehoseSet(g), cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("firehose rendering is not deterministic")
	}
	// A different seed shuffles episodes differently (with 3 episodes
	// and 3 passes, identical orderings are vanishingly unlikely).
	c := Firehose(g, firehoseSet(g), FirehoseConfig{BatchEvents: 4, Repeat: 3, Seed: 43})
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestFirehoseConservesEvents(t *testing.T) {
	g := eventsTestGraph(t)
	set := firehoseSet(g)
	perPass := 0
	for _, ep := range Episodes(g, set) {
		perPass += len(ep.Onset) + len(ep.Recovery)
	}
	const repeat = 4
	batches := Firehose(g, set, FirehoseConfig{BatchEvents: 5, Repeat: repeat, Seed: 1})
	total := 0
	for i, b := range batches {
		if len(b.Events) == 0 || len(b.Events) > 5 {
			t.Fatalf("batch %d has %d events, want 1..5", i, len(b.Events))
		}
		if want := time.Duration(i) * 10 * time.Millisecond; b.At != want {
			t.Fatalf("batch %d stamped %v, want %v", i, b.At, want)
		}
		total += len(b.Events)
	}
	if total != repeat*perPass {
		t.Fatalf("stream carries %d events, want %d (%d per pass x %d)", total, repeat*perPass, perPass, repeat)
	}
}

// TestFirehoseReturnsToBase replays the whole stream against a shadow
// link-state map: every pass heals every episode, so the stream must
// end with all links up.
func TestFirehoseReturnsToBase(t *testing.T) {
	g := eventsTestGraph(t)
	batches := Firehose(g, firehoseSet(g), FirehoseConfig{BatchEvents: 3, Repeat: 2, Seed: 7})
	down := map[int]bool{}
	for _, b := range batches {
		for _, e := range b.Events {
			switch e.Kind {
			case EventLinkDown:
				down[e.Link] = true
			case EventLinkUp:
				delete(down, e.Link)
			default:
				t.Fatalf("unexpected event kind %q in a link-failure stream", e.Kind)
			}
		}
	}
	if len(down) != 0 {
		t.Fatalf("stream left links down: %v", down)
	}
}

func TestFirehoseDefaults(t *testing.T) {
	g := eventsTestGraph(t)
	batches := Firehose(g, firehoseSet(g), FirehoseConfig{})
	if len(batches) != 1 {
		t.Fatalf("%d batches, want 1 (8 events under the 256 default)", len(batches))
	}
	if batches[0].At != 0 {
		t.Fatalf("first batch stamped %v, want 0", batches[0].At)
	}
}
