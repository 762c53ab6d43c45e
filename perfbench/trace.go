package main

import (
	"os"
	"path/filepath"
	"time"

	"repro/internal/fleet"
	"repro/internal/ingest"
	"repro/internal/obsv"
	"repro/internal/scenario"
)

// traceTelemetry is the traced run of a telemetry workload. It drives
// dtrd for a fixed number of rounds (the dtrd.* client times), then
// replays the admitted batches twice through an in-process fleet shaped
// like the daemon: once untraced (the reference dtrd is checked
// against, and the allocation count), once with the engine's registry
// and span ring installed (every layer below the facade). Finally it
// calls the WAL and the coalescer directly on the same events.
func traceTelemetry(p *telemetryParams, seed int64, dir, dtrd string) (*report, error) {
	env, err := prepareTelemetry(p, seed, dir, dtrd)
	if err != nil {
		return nil, err
	}
	rep := &report{}
	d, _, args, err := env.start()
	if err != nil {
		return nil, err
	}
	defer d.stop()
	rep.dtrdArgs = args
	dr, plain, _, err := env.driveAndCheck(d, rep, 0, 0, p.traceRounds)
	if err != nil {
		return nil, err
	}

	reg := obsv.NewRegistry()
	reg.EnableSpans(1 << 17)
	obsv.SetDefault(reg)
	_, tr, err := env.replay(dr.acked, filepath.Join(dir, "wal-traced"), reg)
	obsv.SetDefault(nil)
	if err != nil {
		return nil, err
	}
	wal, coal, err := env.directLayers(dr.acked, filepath.Join(dir, "wal-direct"))
	if err != nil {
		return nil, err
	}

	// dtrd, client side.
	nr := len(dr.rounds)
	var obs, app, adv time.Duration
	for _, r := range dr.rounds {
		obs, app, adv = obs+r.observe, app+r.apply, adv+r.advise
	}
	ms := func(d time.Duration, n int) float64 { return ratio(float64(d)/1e6, float64(n)) }
	us := func(d time.Duration, n int) float64 { return ratio(float64(d)/1e3, float64(n)) }
	rep.set("dtrd.observe_ms", ms(obs, nr), nr)
	rep.set("dtrd.apply_ms", ms(app, nr), nr)
	rep.set("dtrd.advise_ms", ms(adv, nr), nr)
	rep.set("dtrd.body_bytes_per_event", ratio(float64(dr.bytes), float64(dr.events)), dr.events)

	// Facade and intake, timed around the in-process calls.
	nb := len(tr.start)
	var enq, wait time.Duration
	for i := 0; i < nb; i++ {
		enq += tr.enqEnd[i].Sub(tr.start[i])
		if !tr.hooks[i].IsZero() && tr.hooks[i].After(tr.enqEnd[i]) {
			wait += tr.hooks[i].Sub(tr.enqEnd[i])
		}
	}
	rep.set("facade.enqueue_us_per_event", us(enq, tr.events), tr.events)
	rep.set("fleet.wal_append_us_per_event", us(wal.append, wal.events), wal.events)
	rep.set("fleet.wal_bytes_per_event", ratio(float64(wal.bytes), float64(wal.events)), wal.events)
	rep.set("ingest.queue_wait_us", us(wait, nb), nb)
	rep.set("ingest.coalesce_us_per_batch", us(coal.time, coal.batches), coal.batches)
	rep.set("ingest.coalesce_keep_frac", ratio(float64(coal.out), float64(coal.in)), coal.in)

	// Below the facade: the engine's own spans and counters.
	spans := aggregate(tr.spans)
	deliveries := spans.count["ingest.deliver"]
	rep.set("ctrl.observe_batch_ms", ms(sumPrefix(spans.self, "observe."), deliveries), deliveries)
	rep.set("ctrl.advise_us", us(spans.dur["advise"], spans.count["advise"]), spans.count["advise"])
	upd := spans.updates()
	for _, region := range []string{"dests", "resum", "lambda", "fill"} {
		rep.set("routing."+region+"_ms", ms(spans.dur["session."+region], upd), upd)
	}
	updates := delta(tr.before, tr.after, "routing_session_updates_total")
	rep.set("routing.dests_per_update", ratio(delta(tr.before, tr.after, "routing_session_dests_total"), updates), int(updates))
	rep.set("routing.demand_rebases", delta(tr.before, tr.after, "routing_session_demand_rebases_total"), nb)
	rep.set("spf.dijkstra_runs", delta(tr.before, tr.after, "spf_runs_total"), nb)
	rep.set("spf.repairs", delta(tr.before, tr.after, "spf_repairs_total"), nb)
	rep.set("go.alloc_bytes_per_event", ratio(float64(plain.allocBytes), float64(plain.events)), plain.events)

	// Accounting: the part of each traced round no timed call covers
	// (Enqueue, the queue wait, the intake's delivery span, Advise), and
	// what tracing cost against the untraced replay.
	var delivered []interval
	for _, s := range tr.spans {
		if s.Name == "ingest.deliver" {
			delivered = append(delivered, interval{s.Start, s.End})
		}
	}
	var wall, covered, plainWall time.Duration
	for i := 0; i < nb; i++ {
		lo, hi := tr.start[i], tr.end[i]
		iv := []interval{{tr.start[i], tr.enqEnd[i]}, {tr.advStart[i], tr.end[i]}}
		if !tr.hooks[i].IsZero() {
			iv = append(iv, interval{tr.enqEnd[i], tr.hooks[i]})
		}
		iv = append(iv, delivered...)
		var kept []interval
		for _, x := range iv {
			if x, ok := clip(x, lo, hi); ok {
				kept = append(kept, x)
			}
		}
		wall += hi.Sub(lo)
		covered += unionLen(kept)
		plainWall += plain.round(i)
	}
	rep.set("trace.unaccounted_frac", 1-ratio(float64(covered), float64(wall)), nb)
	rep.set("trace.overhead_frac", ratio(float64(wall), float64(plainWall))-1, nb)

	var regions []interval
	var regionTime time.Duration
	for _, s := range tr.spans {
		switch s.Name {
		case "session.dests", "session.resum", "session.lambda", "session.fill":
			regions = append(regions, interval{s.Start, s.End})
			regionTime += s.Duration()
		}
	}
	var deliverTime time.Duration
	for _, x := range delivered {
		deliverTime += x.b.Sub(x.a)
	}
	rep.note("share: routing.* time per round / dtrd.apply_ms = %.3f (summed over the parallel sessions); routing regions run during %.3f of the in-process delivery time",
		ratio(ms(regionTime, nb), ms(app, nr)), ratio(float64(unionLen(regions)), float64(deliverTime)))
	rep.note("share: facade.enqueue per batch / dtrd.observe_ms = %.3f", ratio(ms(enq, nb), ms(obs, nr)))
	rep.note("rounds: %d over HTTP; %d batches replayed in process (%.1f ms/round traced, %.1f untraced); spans read %d, evicted %d",
		nr, nb, ms(wall, nb), ms(plainWall, nb), len(tr.spans), tr.spansLost)
	return rep, nil
}

// walStats and coalStats are the direct calls into the WAL and the
// coalescer.
type walStats struct {
	append time.Duration
	bytes  int64
	events int
}

type coalStats struct {
	time             time.Duration
	batches, in, out int
}

// directLayers converts the batches to engine events as the facade
// does, appends each to a private fleet.Store (one record per event,
// as a shard logs them) and coalesces each as the intake would.
func (env *telemetryEnv) directLayers(batches []*batch, dir string) (walStats, coalStats, error) {
	var w walStats
	var c coalStats
	st, err := fleet.OpenStore(dir)
	if err != nil {
		return w, c, err
	}
	defer st.Close()
	var seq uint64 = 1
	for _, b := range batches {
		evs := make([]scenario.Event, len(b.events))
		for i, e := range b.events {
			evs[i] = env.engineEvent(e)
		}
		t0 := time.Now()
		if err := st.Append(seq, evs); err != nil {
			return w, c, err
		}
		w.append += time.Since(t0)
		seq += uint64(len(evs))
		w.events += len(evs)
		t1 := time.Now()
		out, _ := ingest.Coalesce(evs)
		c.time += time.Since(t1)
		c.batches++
		c.in += len(evs)
		c.out += len(out)
	}
	if err := st.Close(); err != nil {
		return w, c, err
	}
	fi, err := os.Stat(filepath.Join(dir, "events.log"))
	if err != nil {
		return w, c, err
	}
	w.bytes = fi.Size()
	return w, c, nil
}

// engineEvent renders a wire event as the facade does: a demand-scale
// event becomes the two base matrices scaled (nil at scale 1).
func (env *telemetryEnv) engineEvent(e wireEvent) scenario.Event {
	switch e.Kind {
	case "link-down":
		return scenario.Event{Kind: scenario.EventLinkDown, Link: e.Link}
	case "link-up":
		return scenario.Event{Kind: scenario.EventLinkUp, Link: e.Link}
	case "demand-scale":
		ev := scenario.Event{Kind: scenario.EventDemand}
		if e.Scale != 0 && e.Scale != 1 {
			ev.DemD = env.base[0].Clone().Scale(e.Scale)
			ev.DemT = env.base[1].Clone().Scale(e.Scale)
		}
		return ev
	}
	return scenario.Event{Kind: scenario.EventDemandDelta, DeltaD: e.DeltaD, DeltaT: e.DeltaT}
}
