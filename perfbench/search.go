package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro"
	"repro/internal/obsv"
)

// searchParams defines the search workload: the planner's time to a
// robust solution, Optimize at Budget "quick" with one worker, one
// search seed per sub-seed.
type searchParams struct {
	nodes, links int
	// netSeed seeds the random topology every search runs on. It is
	// fixed, as the telemetry workloads fix their network: runs differ
	// in their search seeds, not in how hard their networks are.
	netSeed int64
	// builds is how many times each search's network is built; setup_s
	// is the median build time over a run.
	builds int
	// minSearches is the least number of searches an untraced run makes
	// however short its window; setup_s and result_p50_ms are medians
	// over them.
	minSearches int
	// traceSearches is the fixed search count of a traced run, so its
	// work counts repeat exactly.
	traceSearches int
}

var searchP = searchParams{nodes: 20, links: 100, netSeed: 1, builds: 5, minSearches: 3, traceSearches: 10}

// subSeed derives the seed of the i-th search of a run from the run's
// seed.
func subSeed(seed int64, i int) int64 { return seed*1000 + int64(i) }

type searchOut struct {
	setups []time.Duration
	search time.Duration
	res    *repro.OptimizeResult
	evals  int
	digest string
}

// oneSearch builds the network (p.builds times, timing each) and runs
// the full pipeline (Phase 1, 1b, 1c, then Phase 2) on it from the
// search seed.
func oneSearch(p *searchParams, seed int64, workers int) (searchOut, error) {
	var out searchOut
	var nw *repro.Network
	for i := 0; i < p.builds; i++ {
		t0 := time.Now()
		var err error
		nw, err = repro.NewNetwork(repro.NetworkSpec{Topology: "rand", Nodes: p.nodes, Links: p.links, Seed: p.netSeed})
		out.setups = append(out.setups, time.Since(t0))
		if err != nil {
			return out, err
		}
	}
	t1 := time.Now()
	res, err := nw.Optimize(repro.OptimizeOptions{Budget: "quick", Workers: workers, Seed: seed})
	out.search = time.Since(t1)
	if err != nil {
		return out, err
	}
	out.res = res
	out.evals = res.Phase1Stats.Evaluations + res.Phase2Stats.Evaluations
	out.digest = searchDigest(res)
	return out, nil
}

// searchDigest hashes what a search decides: the regular and robust
// weights, the critical link set and the evaluation count.
func searchDigest(res *repro.OptimizeResult) string {
	rd, rt := res.Regular.Weights()
	bd, bt := res.Robust.Weights()
	data, _ := json.Marshal([]any{rd, rt, bd, bt, res.CriticalLinks,
		res.Phase1Stats.Evaluations, res.Phase2Stats.Evaluations})
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8])
}

// recordedDigests holds the digests recorded for sub-seeds, keyed by
// the decimal sub-seed; a search whose sub-seed is recorded must match.
//
//go:embed search_digests.json
var recordedDigests []byte

func loadDigests() (map[string]string, error) {
	m := map[string]string{}
	return m, json.Unmarshal(recordedDigests, &m)
}

// checkSearch compares a search with its recorded digest, if any.
func checkSearch(recorded map[string]string, sub int64, out searchOut) error {
	want, ok := recorded[fmt.Sprint(sub)]
	if ok && want != out.digest {
		return fmt.Errorf("search %d: digest %s, recorded %s", sub, out.digest, want)
	}
	return nil
}

// runSearch is the untraced run: searches on consecutive sub-seeds
// until the window closes (at least minSearches), each checked against
// its recorded digest, then the first one repeated with two workers,
// which must decide exactly the same.
func runSearch(p *searchParams, seed int64, seconds int, recorded map[string]string) (*report, error) {
	rep := &report{aliases: map[string]string{"result_p50_ms": "search_s in ms", "work_per_s": "evals_per_s"}}
	var setups, searches []float64
	var evals int
	var busy time.Duration
	var first searchOut
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	for i := 0; i < p.minSearches || time.Now().Before(deadline); i++ {
		out, err := oneSearch(p, subSeed(seed, i), 1)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			first = out
		}
		rep.attempted++
		if err := checkSearch(recorded, subSeed(seed, i), out); err != nil {
			rep.fail(err)
		}
		for _, d := range out.setups {
			setups = append(setups, d.Seconds())
		}
		searches = append(searches, float64(out.search)/1e6)
		evals += out.evals
		busy += out.search
	}
	rss, err := peakRSSMiB(os.Getpid())
	if err != nil {
		return nil, err
	}
	rep.attempted++
	par, err := oneSearch(p, subSeed(seed, 0), 2)
	if err != nil {
		return nil, err
	}
	if par.digest != first.digest {
		rep.fail(fmt.Errorf("search %d: two workers decided %s, one worker %s", subSeed(seed, 0), par.digest, first.digest))
	}
	rep.set("setup_s", median(setups), len(setups))
	rep.set("result_p50_ms", median(searches), len(searches))
	rep.set("work_per_s", float64(evals)/busy.Seconds(), evals)
	rep.set("peak_rss_mb", rss, 1)
	rep.note("searches: %d on sub-seeds %d..%d, %d evaluations in %.2fs", len(searches), subSeed(seed, 0), subSeed(seed, len(searches)-1), evals, busy.Seconds())
	return rep, nil
}

// traceSearch is the traced run: each search of a fixed list runs once
// untraced and once with the engine's registry and span ring installed.
func traceSearch(p *searchParams, seed int64, recorded map[string]string) (*report, error) {
	rep := &report{}
	var untraced, traced, phases, p1, p2 time.Duration
	var evals int
	var agg []obsv.SpanRecord
	var kept, seen uint64
	counts := map[string]float64{}
	for i := 0; i < p.traceSearches; i++ {
		sub := subSeed(seed, i)
		u, err := oneSearch(p, sub, 1)
		if err != nil {
			return nil, err
		}
		reg := obsv.NewRegistry()
		rec := reg.EnableSpans(1 << 17)
		obsv.SetDefault(reg)
		s0 := reg.Snapshot()
		t, err := oneSearch(p, sub, 1)
		obsv.SetDefault(nil)
		if err != nil {
			return nil, err
		}
		s1 := reg.Snapshot()
		rep.attempted += 2
		for _, o := range []searchOut{u, t} {
			if err := checkSearch(recorded, sub, o); err != nil {
				rep.fail(err)
			}
		}
		if u.digest != t.digest {
			rep.fail(fmt.Errorf("search %d: traced run decided %s, untraced %s", sub, t.digest, u.digest))
		}
		untraced += u.search
		traced += t.search
		d1 := time.Duration(t.res.Phase1Stats.Seconds * 1e9)
		d2 := time.Duration(t.res.Phase2Stats.Seconds * 1e9)
		p1 += d1
		p2 += d2
		phases += d1 + d2
		evals += t.evals
		for _, name := range []string{"spf_runs_total", "spf_repairs_total", "routing_session_dests_total", "routing_session_updates_total", "routing_session_demand_rebases_total"} {
			counts[name] += delta(s0, s1, name)
		}
		agg = append(agg, rec.Spans()...)
		seen += rec.Total()
		kept += min(rec.Total(), uint64(rec.Capacity()))
	}
	n := float64(p.traceSearches)
	spans := aggregate(agg)
	upd := spans.updates()
	perUpdate := func(name string) float64 {
		if upd == 0 {
			return 0
		}
		return float64(spans.dur[name]) / 1e6 / float64(upd)
	}
	rep.set("routing.dests_ms", perUpdate("session.dests"), upd)
	rep.set("routing.resum_ms", perUpdate("session.resum"), upd)
	rep.set("routing.lambda_ms", perUpdate("session.lambda"), upd)
	rep.set("routing.fill_ms", perUpdate("session.fill"), upd)
	rep.set("routing.dests_per_update", ratio(counts["routing_session_dests_total"], counts["routing_session_updates_total"]), int(counts["routing_session_updates_total"]))
	rep.set("routing.demand_rebases", counts["routing_session_demand_rebases_total"], p.traceSearches)
	rep.set("spf.dijkstra_runs", counts["spf_runs_total"], p.traceSearches)
	rep.set("spf.repairs", counts["spf_repairs_total"], p.traceSearches)
	rep.set("opt.phase1_s", p1.Seconds()/n, p.traceSearches)
	rep.set("opt.phase2_s", p2.Seconds()/n, p.traceSearches)
	rep.set("opt.evals", float64(evals), p.traceSearches)
	rep.set("trace.unaccounted_frac", 1-phases.Seconds()/traced.Seconds(), p.traceSearches)
	rep.set("trace.overhead_frac", traced.Seconds()/untraced.Seconds()-1, p.traceSearches)
	rep.note("routing times are per traced update over %d updates retained by the span ring (%d of %d spans kept); Phase 2 traces only its normal-conditions session", upd, kept, seen)
	rep.note("searches: %d traced, %.2fs traced vs %.2fs untraced", p.traceSearches, traced.Seconds(), untraced.Seconds())
	return rep, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// recordDigests computes the digests of sub-seeds 0..subs-1 of seeds
// 0..seeds-1, the content of search_digests.json.
func recordDigests(p *searchParams, seeds, subs int) (map[string]string, error) {
	out := map[string]string{}
	for seed := int64(0); seed < int64(seeds); seed++ {
		for i := 0; i < subs; i++ {
			o, err := oneSearch(p, subSeed(seed, i), 1)
			if err != nil {
				return nil, err
			}
			out[fmt.Sprint(subSeed(seed, i))] = o.digest
		}
	}
	return out, nil
}
