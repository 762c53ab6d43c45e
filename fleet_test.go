package repro

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/traffic"
)

// fleetTestMembers builds a two-network fleet declaration with distinct
// topologies (different seeds) and per-network libraries.
func fleetTestMembers(t testing.TB) []FleetMember {
	t.Helper()
	members := make([]FleetMember, 2)
	for i, name := range []string{"east", "west"} {
		net, err := NewNetwork(NetworkSpec{Topology: "rand", Nodes: 8, Links: 32, Seed: int64(3 + i)})
		if err != nil {
			t.Fatal(err)
		}
		lib, _ := controlTestLibrary(t, net)
		members[i] = FleetMember{Name: name, Net: net, Library: lib}
	}
	return members
}

func closeFleet(t testing.TB, f *Fleet) {
	t.Helper()
	if err := f.Close(context.Background()); err != nil {
		t.Errorf("fleet close: %v", err)
	}
}

func TestFleetRoutingByNetworkField(t *testing.T) {
	f, err := NewFleet(fleetTestMembers(t), FleetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer closeFleet(t, f)

	if got := f.Networks(); len(got) != 2 || got[0] != "east" || got[1] != "west" {
		t.Fatalf("Networks() = %v", got)
	}
	if f.DefaultNetwork() != "east" {
		t.Fatalf("default = %q", f.DefaultNetwork())
	}

	// One batch carrying events for both networks plus the default route
	// (empty Network → first member).
	res, err := f.Enqueue([]ControlEvent{
		{Kind: "link-down", Link: 1, Network: "east"},
		{Kind: "link-down", Link: 2, Network: "west"},
		{Kind: "link-down", Link: 3}, // default: east
		{Kind: "link-up", Link: 1, Network: "east"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 4 {
		t.Fatalf("accepted %d, want 4", res.Accepted)
	}
	if res.LastSeq["east"] != 3 || res.LastSeq["west"] != 1 {
		t.Fatalf("LastSeq = %v", res.LastSeq)
	}
	f.QuiesceAll()

	east, err := f.State("east")
	if err != nil {
		t.Fatal(err)
	}
	if len(east.DownLinks) != 1 || east.DownLinks[0] != 3 {
		t.Fatalf("east down links %v, want [3]", east.DownLinks)
	}
	west, err := f.State("west")
	if err != nil {
		t.Fatal(err)
	}
	if len(west.DownLinks) != 1 || west.DownLinks[0] != 2 {
		t.Fatalf("west down links %v, want [2]", west.DownLinks)
	}
	// "" resolves to the default network for queries too.
	def, err := f.State("")
	if err != nil {
		t.Fatal(err)
	}
	if len(def.DownLinks) != 1 || def.DownLinks[0] != 3 {
		t.Fatalf("default state is not east: %v", def.DownLinks)
	}
}

func TestFleetRejectsWholeBatchUpfront(t *testing.T) {
	f, err := NewFleet(fleetTestMembers(t), FleetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer closeFleet(t, f)

	// Unknown network in the middle: nothing is admitted anywhere.
	_, err = f.Enqueue([]ControlEvent{
		{Kind: "link-down", Link: 1, Network: "east"},
		{Kind: "link-down", Link: 2, Network: "mars"},
	})
	if !errors.Is(err, ErrUnknownNetwork) {
		t.Fatalf("error = %v, want ErrUnknownNetwork", err)
	}
	if !strings.Contains(err.Error(), "event 1") {
		t.Fatalf("error %q does not locate the offending event", err)
	}
	// Malformed event: same upfront rejection.
	if _, err := f.Enqueue([]ControlEvent{
		{Kind: "link-down", Link: 1, Network: "east"},
		{Kind: "no-such-type", Network: "west"},
	}); err == nil {
		t.Fatal("malformed event admitted")
	}
	// Shape errors only a shard can see — a link or a delta pair out of
	// the second network's range — also reject the first network's part,
	// and name the event by its index in the posted batch, not in its
	// network's part of it.
	if _, err := f.Enqueue([]ControlEvent{
		{Kind: "link-down", Link: 1, Network: "east"},
		{Kind: "link-down", Link: 2, Network: "east"},
		{Kind: "link-down", Link: 9999, Network: "west"},
	}); err == nil || !strings.Contains(err.Error(), "out of range") || !strings.HasPrefix(err.Error(), "event 2: ") {
		t.Fatalf("out-of-range link error = %v, want it to name event 2", err)
	}
	// Dense matrices are not a wire field: a "demand" event and matrices
	// riding on any other kind are both rejected.
	for _, e := range []ControlEvent{
		{Kind: "demand", Network: "west"},
		{Kind: "demand-scale", Scale: 2, DemT: traffic.NewMatrix(8)},
	} {
		if _, err := f.Enqueue([]ControlEvent{{Kind: "link-down", Link: 1}, e}); err == nil || !strings.HasPrefix(err.Error(), "event 1: ") {
			t.Fatalf("%s event with matrices: error = %v", e.Kind, err)
		}
	}
	if _, err := f.Enqueue([]ControlEvent{
		{Kind: "link-down", Link: 2, Network: "east"},
		{Kind: "demand-delta", Network: "west", DeltaD: &DemandDelta{Entries: []DemandDeltaEntry{{S: 0, T: 99, New: 5}}}},
	}); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("out-of-range delta pair error = %v", err)
	}
	f.QuiesceAll()
	st := f.FleetState()
	for _, sh := range st.Shards {
		if sh.Seq != 0 {
			t.Fatalf("%s admitted %d events from rejected batches", sh.Network, sh.Seq)
		}
	}
}

func TestFleetBackpressurePerShard(t *testing.T) {
	f, err := NewFleet(fleetTestMembers(t), FleetOptions{
		Intake: IntakeOptions{Capacity: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer closeFleet(t, f)

	// Freeze east's deliveries so its tiny queue fills, then offer a
	// mixed batch: west's sub-batch must land even though east sheds.
	if err := f.Pause("east"); err != nil {
		t.Fatal(err)
	}
	fill := make([]ControlEvent, 4)
	for i := range fill {
		fill[i] = ControlEvent{Kind: "link-down", Link: i, Network: "east"}
	}
	if _, err := f.Enqueue(fill); err != nil {
		t.Fatal(err)
	}
	res, err := f.Enqueue([]ControlEvent{
		{Kind: "link-down", Link: 5, Network: "east"},
		{Kind: "link-down", Link: 6, Network: "west"},
	})
	if !errors.Is(err, ErrIntakeFull) {
		t.Fatalf("error = %v, want ErrIntakeFull", err)
	}
	if len(res.Shed) != 1 || res.Shed[0] != "east" {
		t.Fatalf("Shed = %v, want [east]", res.Shed)
	}
	if res.Accepted != 1 || res.LastSeq["west"] != 1 {
		t.Fatalf("west sub-batch not admitted: %+v", res)
	}
	if err := f.Resume("east"); err != nil {
		t.Fatal(err)
	}
	f.QuiesceAll()
}

func TestFleetCheckpointRestore(t *testing.T) {
	members := fleetTestMembers(t)
	dir := t.TempDir()
	f, err := NewFleet(members, FleetOptions{CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Enqueue([]ControlEvent{
		{Kind: "link-down", Link: 1, Network: "east"},
		{Kind: "link-down", Link: 2, Network: "west"},
		{Kind: "demand-scale", Scale: 1.5, Network: "west"},
	}); err != nil {
		t.Fatal(err)
	}
	f.QuiesceAll()
	wantEast, err := f.State("east")
	if err != nil {
		t.Fatal(err)
	}
	wantWest, err := f.State("west")
	if err != nil {
		t.Fatal(err)
	}
	// Kill mid-flight: both shards restore from write-ahead state alone
	// (no explicit checkpoint yet).
	if err := f.Kill("west"); err != nil {
		t.Fatal(err)
	}
	gotWest, err := f.State("west")
	if err != nil {
		t.Fatal(err)
	}
	if gotWest.Deployed != wantWest.Deployed || len(gotWest.DownLinks) != len(wantWest.DownLinks) {
		t.Fatalf("west diverged after kill:\nwant %+v\ngot  %+v", wantWest, gotWest)
	}

	// Full restart: close the fleet and reopen over the same directory.
	if err := f.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	f2, err := NewFleet(members, FleetOptions{CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer closeFleet(t, f2)
	st := f2.FleetState()
	for _, sh := range st.Shards {
		if sh.ColdStart {
			t.Fatalf("%s cold-started on reopen: %q", sh.Network, sh.RestoreError)
		}
	}
	gotEast, err := f2.State("east")
	if err != nil {
		t.Fatal(err)
	}
	gotWest, err = f2.State("west")
	if err != nil {
		t.Fatal(err)
	}
	if gotEast.Deployed != wantEast.Deployed || len(gotEast.DownLinks) != 1 || gotEast.DownLinks[0] != 1 {
		t.Fatalf("east state lost across restart:\nwant %+v\ngot  %+v", wantEast, gotEast)
	}
	if gotWest.Deployed != wantWest.Deployed || len(gotWest.DownLinks) != 1 || gotWest.DownLinks[0] != 2 {
		t.Fatalf("west state lost across restart:\nwant %+v\ngot  %+v", wantWest, gotWest)
	}
}

// TestFleetRejectsNonFiniteDemand pins that demand values the event log
// cannot hold — a NaN, infinite or negative scale, a NaN or infinite
// delta entry — are rejected at admission: they never reach the
// sessions or the log, and a crash afterwards restores the shard from
// its log instead of cold-starting.
func TestFleetRejectsNonFiniteDemand(t *testing.T) {
	f, err := NewFleet(fleetTestMembers(t), FleetOptions{CheckpointDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer closeFleet(t, f)
	if _, err := f.Enqueue([]ControlEvent{{Kind: "link-down", Link: 1}, {Kind: "demand-scale", Scale: 1.5}}); err != nil {
		t.Fatal(err)
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, e := range []ControlEvent{
		{Kind: "demand-scale", Scale: inf},
		{Kind: "demand-scale", Scale: -inf},
		{Kind: "demand-scale", Scale: nan},
		{Kind: "demand-scale", Scale: -1},
		{Kind: "demand-delta", DeltaD: &DemandDelta{Entries: []DemandDeltaEntry{{S: 0, T: 1, Old: 1, New: nan}}}},
		{Kind: "demand-delta", DeltaT: &DemandDelta{Entries: []DemandDeltaEntry{{S: 0, T: 1, Old: inf, New: 2}}}},
	} {
		if _, err := f.Enqueue([]ControlEvent{e}); err == nil {
			t.Errorf("%s event %+v admitted", e.Kind, e)
		}
	}
	// A valid event after the rejected ones: the log must stay gap-free.
	if _, err := f.Enqueue([]ControlEvent{{Kind: "link-down", Link: 2}}); err != nil {
		t.Fatal(err)
	}
	f.QuiesceAll()
	want, err := f.State("")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Kill(""); err != nil {
		t.Fatal(err)
	}
	sh := f.FleetState().Shards[0]
	if sh.ColdStart || sh.LogError != "" || sh.Seq != 3 || sh.Replayed != 3 {
		t.Fatalf("restore after rejected events: %+v", sh)
	}
	got, err := f.State("")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("state diverged after kill:\nwant %+v\ngot  %+v", want, got)
	}
}

func TestFleetStateAggregation(t *testing.T) {
	f, err := NewFleet(fleetTestMembers(t), FleetOptions{CheckpointDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer closeFleet(t, f)
	if _, err := f.Enqueue([]ControlEvent{
		{Kind: "link-down", Link: 1, Network: "east"},
		{Kind: "link-down", Link: 2, Network: "west"},
	}); err != nil {
		t.Fatal(err)
	}
	f.QuiesceAll()
	if err := f.CheckpointAll(); err != nil {
		t.Fatal(err)
	}
	st := f.FleetState()
	if st.Default != "east" || len(st.Shards) != 2 {
		t.Fatalf("fleet state shape: %+v", st)
	}
	if st.TotalAccepted < 2 || st.TotalDelivered < 2 {
		t.Fatalf("totals not rolled up: %+v", st)
	}
	if st.TotalCheckpoints < 2 {
		t.Fatalf("TotalCheckpoints = %d, want >= 2", st.TotalCheckpoints)
	}
	for _, sh := range st.Shards {
		if !sh.Up || sh.State != "running" {
			t.Fatalf("%s not serving: %+v", sh.Network, sh)
		}
		if sh.ActiveName == "" {
			t.Fatalf("%s missing controller fields: %+v", sh.Network, sh)
		}
	}
	// A crash shows up in the rollup (intake counters reset with the
	// restarted queue, so only the crash counter survives the kill).
	if err := f.Kill("west"); err != nil {
		t.Fatal(err)
	}
	st = f.FleetState()
	if st.TotalCrashes != 1 {
		t.Fatalf("TotalCrashes = %d, want 1", st.TotalCrashes)
	}
	for _, sh := range st.Shards {
		if !sh.Up || sh.State != "running" {
			t.Fatalf("%s not serving after the kill: %+v", sh.Network, sh)
		}
	}
}

func TestFleetValidation(t *testing.T) {
	members := fleetTestMembers(t)
	if _, err := NewFleet(nil, FleetOptions{}); err == nil {
		t.Error("empty fleet accepted")
	}
	if _, err := NewFleet([]FleetMember{members[0], members[0]}, FleetOptions{}); err == nil {
		t.Error("duplicate name accepted")
	}
	bad := members[0]
	bad.Name = "not a name!"
	if _, err := NewFleet([]FleetMember{bad}, FleetOptions{}); err == nil {
		t.Error("invalid name accepted")
	}
	cross := FleetMember{Name: "x", Net: members[0].Net, Library: members[1].Library}
	if _, err := NewFleet([]FleetMember{cross}, FleetOptions{}); err == nil || !strings.Contains(err.Error(), "different network") {
		t.Errorf("cross-network library error = %v", err)
	}
}

func TestFleetReplayEpisode(t *testing.T) {
	net, err := NewNetwork(NetworkSpec{Topology: "rand", Nodes: 8, Links: 32, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	lib, set := controlTestLibrary(t, net)
	f, err := NewFleet([]FleetMember{{Name: "east", Net: net, Library: lib}}, FleetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer closeFleet(t, f)
	if err := f.ReplayEpisode("east", set, 0, true); err != nil {
		t.Fatal(err)
	}
	st, err := f.State("east")
	if err != nil {
		t.Fatal(err)
	}
	if len(st.DownLinks) == 0 {
		t.Fatal("episode onset left no links down")
	}
	if err := f.ReplayEpisode("east", set, 0, false); err != nil {
		t.Fatal(err)
	}
	st, err = f.State("east")
	if err != nil {
		t.Fatal(err)
	}
	if len(st.DownLinks) != 0 {
		t.Fatalf("episode recovery left links down: %v", st.DownLinks)
	}
	if err := f.ReplayEpisode("east", set, 99, true); err == nil {
		t.Error("out-of-range episode accepted")
	}
}
