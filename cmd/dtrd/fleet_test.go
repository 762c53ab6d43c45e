package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro"
	"repro/internal/obsv"
)

// testFleetServer builds a two-network ("east" default, "west") daemon
// with opts applied to the fleet.
func testFleetServer(t *testing.T, opts repro.FleetOptions) (*httptest.Server, *repro.Fleet) {
	t.Helper()
	reg := obsv.NewRegistry()
	obsv.SetDefault(reg)
	t.Cleanup(func() { obsv.SetDefault(nil) })
	var fm []repro.FleetMember
	for i, name := range []string{"east", "west"} {
		nw, err := repro.NewNetwork(repro.NetworkSpec{Topology: "rand", Nodes: 8, Links: 32, Seed: int64(3 + i)})
		if err != nil {
			t.Fatal(err)
		}
		set, err := nw.MergeScenarios("day", nw.DualLinkFailureScenarios(3, 5))
		if err != nil {
			t.Fatal(err)
		}
		lib, err := nw.BuildLibrary(set, repro.LibraryOptions{Size: 2, Budget: "quick", Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		fm = append(fm, repro.FleetMember{Name: name, Net: nw, Library: lib})
	}
	f, err := repro.NewFleet(fm, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close(context.Background()) })
	ts := httptest.NewServer(newServer(f, 0, reg).mux())
	t.Cleanup(ts.Close)
	return ts, f
}

// TestFleetHTTPRoutingByNetwork drives the multi-network wire contract:
// events route by their "network" field, query endpoints select shards
// with ?network=, the default network serves unqualified requests, and
// unknown networks reject with 404 (query) or 400 (observe body).
func TestFleetHTTPRoutingByNetwork(t *testing.T) {
	ts, f := testFleetServer(t, repro.FleetOptions{})

	// A mixed batch fans out to both shards; the ack reports per-network
	// sequences and no scalar last_seq (it would be ambiguous).
	batch := []repro.ControlEvent{
		{Kind: "link-down", Link: 3, Network: "west"},
		{Kind: "link-down", Link: 4, Network: "west"},
		{Kind: "link-down", Link: 7, Network: "east"},
	}
	var ack struct {
		Status   string            `json:"status"`
		Accepted int               `json:"accepted"`
		PerNet   map[string]uint64 `json:"last_seq_by_network"`
		LastSeq  *uint64           `json:"last_seq"`
	}
	if code := postJSON(t, ts.URL+"/observe", batch, &ack); code != http.StatusAccepted {
		t.Fatalf("mixed batch returned %d", code)
	}
	if ack.Accepted != 3 || ack.PerNet["west"] != 2 || ack.PerNet["east"] != 1 {
		t.Fatalf("ack %+v", ack)
	}
	if ack.LastSeq != nil {
		t.Fatalf("multi-network ack carries scalar last_seq %d", *ack.LastSeq)
	}
	if code := postJSON(t, ts.URL+"/fleet/quiesce", nil, nil); code != http.StatusOK {
		t.Fatalf("fleet quiesce returned %d", code)
	}

	var st repro.ControllerState
	getJSON(t, ts.URL+"/state?network=west", &st)
	if len(st.DownLinks) != 2 {
		t.Fatalf("west state %+v", st)
	}
	getJSON(t, ts.URL+"/state?network=east", &st)
	if len(st.DownLinks) != 1 || st.DownLinks[0] != 7 {
		t.Fatalf("east state %+v", st)
	}
	// Unqualified requests serve the default network (the first member).
	var def repro.ControllerState
	getJSON(t, ts.URL+"/state", &def)
	if len(def.DownLinks) != 1 || def.DownLinks[0] != 7 {
		t.Fatalf("default state %+v", def)
	}

	var cfg struct {
		Network  string   `json:"network"`
		Networks []string `json:"networks"`
	}
	getJSON(t, ts.URL+"/config?network=west", &cfg)
	if cfg.Network != "west" || len(cfg.Networks) != 2 || cfg.Networks[0] != "east" {
		t.Fatalf("config %+v", cfg)
	}

	// An event with no network field routes to the default shard; a
	// single-network ack still carries the scalar last_seq.
	if code := postJSON(t, ts.URL+"/observe", repro.ControlEvent{Kind: "link-up", Link: 7}, &ack); code != http.StatusAccepted {
		t.Fatalf("default observe returned %d", code)
	}
	if ack.PerNet["east"] != 2 || ack.LastSeq == nil || *ack.LastSeq != 2 {
		t.Fatalf("default-network ack %+v", ack)
	}

	// Unknown networks: 404 on query selection, 400 rejecting the body
	// whole — nothing from the batch is admitted.
	resp, err := http.Get(ts.URL + "/state?network=nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown network state returned %d", resp.StatusCode)
	}
	bad := []repro.ControlEvent{
		{Kind: "link-down", Link: 1, Network: "east"},
		{Kind: "link-down", Link: 1, Network: "nope"},
	}
	if code := postJSON(t, ts.URL+"/observe", bad, nil); code != http.StatusBadRequest {
		t.Fatalf("unknown-network batch returned %d", code)
	}
	// A malformed event is named by its index in the posted batch, and
	// dense demand matrices ("demd"/"demt") are not accepted on the wire.
	zeros := `{"n":8,"demands":[` + strings.Repeat("0,", 63) + `0]}`
	for _, tc := range []struct{ body, want string }{
		{`[{"kind":"link-down","link":1,"network":"east"},{"kind":"link-down","link":2,"network":"east"},` +
			`{"kind":"link-down","link":9999,"network":"west"}]`, "event 2: "},
		{`[{"kind":"link-down","link":1},{"kind":"demand-scale","scale":2,"demd":` + zeros + `}]`, "event 1: "},
		{`[{"kind":"link-down","link":1},{"kind":"demand","demt":` + zeros + `}]`, "event 1: "},
	} {
		resp, err := http.Post(ts.URL+"/observe", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var e struct{ Error string }
		err = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusBadRequest || !strings.HasPrefix(e.Error, tc.want) {
			t.Fatalf("POST %s: %d %q (%v), want 400 starting %q", tc.body, resp.StatusCode, e.Error, err, tc.want)
		}
	}
	f.QuiesceAll()
	st2, err := f.State("east")
	if err != nil {
		t.Fatal(err)
	}
	if st2.Events != 2 { // link-down 7 + link-up 7; nothing from the rejected batch
		t.Fatalf("rejected batch leaked into east: %+v", st2)
	}
}

// TestFleetHTTPPlanApplyPerNetwork runs the advise/plan/apply loop on a
// non-default shard through the network body field.
func TestFleetHTTPPlanApplyPerNetwork(t *testing.T) {
	ts, f := testFleetServer(t, repro.FleetOptions{})

	if code := postJSON(t, ts.URL+"/observe", repro.ControlEvent{Kind: "link-down", Link: 5, Network: "west"}, nil); code != http.StatusAccepted {
		t.Fatalf("observe returned %d", code)
	}
	f.QuiesceAll()
	var adv repro.Advice
	getJSON(t, ts.URL+"/advise?network=west", &adv)

	var plan repro.MigrationPlan
	req := map[string]any{"network": "west", "target": adv.Config, "max_changes": 2}
	if code := postJSON(t, ts.URL+"/plan", req, &plan); code != http.StatusOK {
		t.Fatalf("plan returned %d", code)
	}
	if len(plan.Steps) > 2 {
		t.Fatalf("plan exceeded budget: %d steps", len(plan.Steps))
	}
	if code := postJSON(t, ts.URL+"/apply", req, &plan); code != http.StatusOK {
		t.Fatalf("apply returned %d", code)
	}

	if code := postJSON(t, ts.URL+"/plan", map[string]any{"network": "nope", "target": 0}, nil); code != http.StatusNotFound {
		t.Fatalf("unknown-network plan returned %d", code)
	}
	if code := postJSON(t, ts.URL+"/plan", map[string]any{"network": "west", "target": 99}, nil); code != http.StatusBadRequest {
		t.Fatalf("bad target returned %d", code)
	}
}

// TestFleetHTTPLifecycle exercises /fleet/state and the lifecycle
// endpoints: pause holds deliveries (depth grows), resume + quiesce
// drain, checkpoint commits durably per shard, and the aggregated view
// rolls the totals up.
func TestFleetHTTPLifecycle(t *testing.T) {
	ts, _ := testFleetServer(t, repro.FleetOptions{CheckpointDir: t.TempDir()})

	if code := postJSON(t, ts.URL+"/fleet/pause?network=west", nil, nil); code != http.StatusOK {
		t.Fatalf("pause returned %d", code)
	}
	if code := postJSON(t, ts.URL+"/observe", repro.ControlEvent{Kind: "link-down", Link: 2, Network: "west"}, nil); code != http.StatusAccepted {
		t.Fatalf("observe while paused returned %d", code)
	}
	var fs repro.FleetState
	getJSON(t, ts.URL+"/fleet/state", &fs)
	if fs.Default != "east" || len(fs.Shards) != 2 {
		t.Fatalf("fleet state %+v", fs)
	}
	for _, sh := range fs.Shards {
		if sh.Network == "west" {
			if sh.State != "paused" || sh.Intake.Depth != 1 {
				t.Fatalf("paused west shard %+v", sh)
			}
		} else if sh.State != "running" {
			t.Fatalf("east shard %+v", sh)
		}
	}

	if code := postJSON(t, ts.URL+"/fleet/resume?network=west", nil, nil); code != http.StatusOK {
		t.Fatalf("resume returned %d", code)
	}
	if code := postJSON(t, ts.URL+"/fleet/quiesce?network=west", nil, nil); code != http.StatusOK {
		t.Fatalf("quiesce returned %d", code)
	}
	var res struct {
		Status  string `json:"status"`
		Op      string `json:"op"`
		Network string `json:"network"`
	}
	if code := postJSON(t, ts.URL+"/fleet/checkpoint", nil, &res); code != http.StatusOK {
		t.Fatalf("checkpoint returned %d", code)
	}
	if res.Status != "ok" || res.Op != "checkpoint" || res.Network != "all" {
		t.Fatalf("checkpoint response %+v", res)
	}
	if code := postJSON(t, ts.URL+"/fleet/checkpoint?network=east", nil, &res); code != http.StatusOK {
		t.Fatalf("east checkpoint returned %d", code)
	}
	if res.Network != "east" {
		t.Fatalf("east checkpoint response %+v", res)
	}

	getJSON(t, ts.URL+"/fleet/state", &fs)
	if fs.TotalCheckpoints < 3 || fs.TotalAccepted != 1 || fs.TotalDelivered != 1 {
		t.Fatalf("fleet totals %+v", fs)
	}
	for _, sh := range fs.Shards {
		if !sh.Up || sh.State != "running" || sh.Checkpoints < 1 {
			t.Fatalf("shard after checkpoint %+v", sh)
		}
	}
}

// TestFleetHTTPCheckpointWithoutDir: without -checkpoint-dir the
// endpoint must fail fast instead of pretending durability.
func TestFleetHTTPCheckpointWithoutDir(t *testing.T) {
	ts, _ := testFleetServer(t, repro.FleetOptions{})
	if code := postJSON(t, ts.URL+"/fleet/checkpoint", nil, nil); code != http.StatusBadRequest {
		t.Fatalf("dirless checkpoint returned %d", code)
	}
}
