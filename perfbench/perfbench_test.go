package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/cost"
	"repro/internal/obsv"
	"repro/internal/routing"
)

// small shrinks a workload onto a 20-node network so tests run fast.
func small(p telemetryParams) *telemetryParams {
	p.topology, p.nodes, p.links = "rand", 20, 80
	return &p
}

func render(t *testing.T, p *telemetryParams, seed int64, n int) []*batch {
	t.Helper()
	g, base, err := replica(p.spec())
	if err != nil {
		t.Fatal(err)
	}
	s, err := newStream(p, g, base, seed)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*batch, n)
	for i := range out {
		if out[i], err = s.next(); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func TestSameSeedSameStream(t *testing.T) {
	for _, p := range []*telemetryParams{small(flapsParams), small(surgesParams)} {
		a, b, c := render(t, p, 7, 200), render(t, p, 7, 200), render(t, p, 8, 200)
		differs := false
		for i := range a {
			if !bytes.Equal(a[i].body, b[i].body) {
				t.Fatalf("%d-source stream: batch %d differs between renders of one seed", p.surges, i)
			}
			differs = differs || !bytes.Equal(a[i].body, c[i].body)
		}
		if !differs {
			t.Errorf("%d-source stream: seeds 7 and 8 render the same stream", p.surges)
		}
	}
}

// TestOnsetAndRecoveryApart checks that no batch carries an episode's
// onset together with its recovery, except the flaps, which come in
// exactly the chosen share of batches, and that every recovery lands
// hold batches after its onset.
func TestOnsetAndRecoveryApart(t *testing.T) {
	for _, p := range []*telemetryParams{small(flapsParams), small(surgesParams)} {
		const n = 400
		batches := render(t, p, 3, n)
		born := map[int]int{}
		flaps := 0
		for i, b := range batches {
			onset, recovery := map[int]bool{}, map[int]bool{}
			for _, tg := range b.tags {
				if tg.episode < 0 {
					continue // a demand-scale event belongs to no episode
				}
				if tg.onset {
					onset[tg.episode] = true
					if _, seen := born[tg.episode]; !seen {
						born[tg.episode] = i
					}
				} else {
					recovery[tg.episode] = true
				}
			}
			both := 0
			for ep := range recovery {
				if onset[ep] {
					both++
					continue
				}
				if got := i - born[ep]; got != p.hold {
					t.Errorf("batch %d recovers episode %d %d batches after its onset, want %d", i, ep, got, p.hold)
				}
			}
			if both > 1 || both == 1 && !b.flap || b.flap && both != 1 {
				t.Errorf("batch %d: %d episodes with onset and recovery together (flap batch: %v)", i, both, b.flap)
			}
			if b.flap {
				flaps++
			}
		}
		want := 0
		if p.flapEvery > 0 {
			want = n / p.flapEvery
		}
		if flaps != want {
			t.Errorf("%d flap batches in %d, want %d", flaps, n, want)
		}
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1)
	}
	for _, c := range []struct {
		n      int
		q      float64
		value  float64
		beyond int
		ok     bool
	}{
		{100, 0.5, 50, 50, true},
		{100, 0.9, 90, 10, true},
		{99, 0.9, 90, 9, false},
		{100, 0.99, 99, 1, false},
		{1000, 0.99, 990, 10, true},
		{19, 0.5, 10, 9, false},
		{20, 0.5, 10, 10, true},
	} {
		sub := make([]float64, 0, c.n)
		for _, x := range xs {
			if x <= float64(c.n) {
				sub = append(sub, x)
			}
		}
		p := percentile(sub, c.q)
		if p.Value != c.value || p.Beyond != c.beyond || p.OK != c.ok || p.N != c.n {
			t.Errorf("p%g of 1..%d = %+v, want value %g, %d beyond, ok %v", c.q*100, c.n, p, c.value, c.beyond, c.ok)
		}
	}
	if p := percentile(nil, 0.5); p.OK || p.N != 0 {
		t.Errorf("empty sample: %+v", p)
	}
}

// TestRefusalsAreFailures injects 429 and 503 answers and checks that
// each refused round counts as failed, is not timed as a sample, and
// only admitted batches are kept for the reference.
func TestRefusalsAreFailures(t *testing.T) {
	for _, c := range []struct {
		name     string
		fail     string // path that refuses
		code     int
		admitted bool
	}{
		{"observe-429", "/observe", http.StatusTooManyRequests, false},
		{"observe-503", "/observe", http.StatusServiceUnavailable, false},
		{"quiesce-503", "/fleet/quiesce", http.StatusServiceUnavailable, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			var seq uint64
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == c.fail {
					w.Header().Set("Retry-After", "1")
					w.WriteHeader(c.code)
					fmt.Fprint(w, `{"error":"refused"}`)
					return
				}
				switch r.URL.Path {
				case "/observe":
					var buf bytes.Buffer
					buf.ReadFrom(r.Body)
					n := uint64(strings.Count(buf.String(), `"kind"`))
					seq += n
					w.WriteHeader(http.StatusAccepted)
					fmt.Fprintf(w, `{"accepted":%d,"last_seq":%d}`, n, seq)
				case "/advise":
					fmt.Fprint(w, `{"Config":0}`)
				default:
					fmt.Fprint(w, `{"status":"ok"}`)
				}
			}))
			defer srv.Close()
			d := &daemon{base: srv.URL, client: newClient()}
			s := render(t, small(flapsParams), 1, 5)
			i := 0
			next := func() (*batch, error) { i++; return s[i-1], nil }
			dr, err := driveDaemon(d, next, 0, 0, 5, 4)
			if err != nil {
				t.Fatal(err)
			}
			if dr.attempted != 5 || dr.failed != 5 || len(dr.rounds) != 0 {
				t.Errorf("attempted %d, failed %d, timed %d; want 5, 5, 0", dr.attempted, dr.failed, len(dr.rounds))
			}
			if got := len(dr.acked) == 5; got != c.admitted {
				t.Errorf("%d batches kept as admitted", len(dr.acked))
			}
		})
	}
}

// TestWrongAckIsFailure checks the ack contract: accepted is the batch
// size and last_seq the running count.
func TestWrongAckIsFailure(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/observe" {
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprint(w, `{"accepted":1,"last_seq":1}`)
			return
		}
		fmt.Fprint(w, `{"Config":0}`)
	}))
	defer srv.Close()
	d := &daemon{base: srv.URL, client: newClient()}
	s := render(t, small(flapsParams), 1, 3)
	i := 0
	dr, err := driveDaemon(d, func() (*batch, error) { i++; return s[i-1], nil }, 0, 0, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if dr.failed != 3 {
		t.Errorf("%d of 3 rounds with a wrong ack failed", dr.failed)
	}
}

// TestReplicaMatchesFacade checks the generator's network against the
// facade's: same links, and the same base demands (a routing evaluates
// bit-identically on both).
func TestReplicaMatchesFacade(t *testing.T) {
	for _, spec := range []repro.NetworkSpec{small(surgesParams).spec(), {Topology: "hier", Nodes: 120, Seed: 3}} {
		nw, err := repro.NewNetwork(spec)
		if err != nil {
			t.Fatal(err)
		}
		g, base, err := replica(spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkReplica(g, nw); err != nil {
			t.Fatal(err)
		}
		var res routing.Result
		routing.NewEvaluator(g, base[0], base[1], cost.DefaultParams(), routing.WorstPath).
			EvaluateNormal(routing.NewWeightSetting(g.NumLinks()), &res)
		got, want := nw.UniformRouting().Evaluate(), repro.Evaluation{
			SLAViolations: res.Violations, Disconnected: res.Disconnected,
			DelayCost: res.Cost.Lambda, ThroughputCost: res.Cost.Phi, ThroughputCostNorm: res.PhiNorm,
			MaxUtilization: res.MaxUtil, AvgUtilization: res.AvgUtil,
		}
		if got != want {
			t.Errorf("%s: facade evaluates %+v, replica %+v", spec.Topology, got, want)
		}
	}
}

func TestSelfTimeFoldsWorkersAndOverlaps(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []obsv.SpanRecord{
		{ID: 1, Name: "observe.link_batch", Start: at(0), End: at(100)},
		{ID: 2, Parent: 1, Name: "session.link_batch", Start: at(10), End: at(60)},
		{ID: 3, Parent: 1, Name: "session.link_batch", Start: at(40), End: at(90)},
		{ID: 4, Parent: 2, Name: "session.dests", Start: at(10), End: at(50)},
		{ID: 5, Parent: 4, Name: workerSpan, Start: at(10), End: at(50)},
	}
	a := aggregate(spans)
	for name, want := range map[string]time.Duration{
		"observe.link_batch": 20 * time.Millisecond, // 100 minus the union 10..90
		"session.link_batch": 60 * time.Millisecond, // (50-40) + 50
		"session.dests":      40 * time.Millisecond, // its worker span is its own time
	} {
		if got := a.self[name]; got != want {
			t.Errorf("self(%s) = %v, want %v", name, got, want)
		}
	}
	if a.count[workerSpan] != 0 || a.updates() != 2 {
		t.Errorf("worker spans counted %d, updates %d", a.count[workerSpan], a.updates())
	}
}
