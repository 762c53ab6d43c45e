package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"repro"
	"repro/internal/obsv"
)

// library loads the weight files as dtrd does, with the same names.
func (env *telemetryEnv) library() (*repro.Library, error) {
	routings := make([]*repro.Routing, len(env.weights))
	for i, f := range env.weights {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		if routings[i], err = env.nw.RoutingFromJSON(data); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
	}
	return env.nw.LibraryFromRoutings(env.weights, routings...)
}

// replayRun is the timing of one in-process replay, per batch.
type replayRun struct {
	start, enqEnd, advStart, end []time.Time
	hooks                        []time.Time // first delivery of each batch; zero if none seen
	events                       int
	allocBytes                   uint64
	before, after                obsv.Snapshot // registry counters around the replay (traced)
	spans                        []obsv.SpanRecord
	spansLost                    uint64 // spans evicted from the ring before they were read
}

func (r *replayRun) round(i int) time.Duration { return r.end[i].Sub(r.start[i]) }

// replay feeds batches, decoded from the bytes dtrd received, through
// an in-process one-member repro.Fleet shaped like the daemon (same
// network, library, worker budget, intake bounds, write-ahead log on):
// per batch Enqueue, Quiesce, Advise. It returns the final advice and
// state — the reference dtrd is checked against — and the timings.
// With reg non-nil the caller has installed it as the obsv default;
// replay snapshots its counters around the batches and reads its spans.
func (env *telemetryEnv) replay(batches []*batch, walDir string, reg *obsv.Registry) (served, *replayRun, error) {
	var out served
	lib, err := env.library()
	if err != nil {
		return out, nil, err
	}
	evs := make([][]repro.ControlEvent, len(batches))
	for i, b := range batches {
		if err := json.Unmarshal(b.body, &evs[i]); err != nil {
			return out, nil, err
		}
	}
	f, err := repro.NewFleet([]repro.FleetMember{{Name: "net0", Net: env.nw, Library: lib}}, repro.FleetOptions{
		CheckpointDir: walDir,
		Intake:        repro.IntakeOptions{Capacity: 4096, MaxBatch: 1024, RetryAfter: time.Second},
		Workers:       env.p.fleetWorkers(),
	})
	if err != nil {
		return out, nil, err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		f.Close(ctx)
	}()

	run := &replayRun{}
	var mu sync.Mutex
	var hooks []time.Time
	if reg != nil {
		f.SetDeliveryHook("net0", func([]string) {
			t := time.Now()
			mu.Lock()
			hooks = append(hooks, t)
			mu.Unlock()
		})
		run.before = reg.Snapshot()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i, batch := range evs {
		t0 := time.Now()
		res, err := f.Enqueue(batch)
		t1 := time.Now()
		if err != nil {
			return out, nil, fmt.Errorf("reference batch %d: %w", i, err)
		}
		if res.Accepted != len(batch) {
			return out, nil, fmt.Errorf("reference batch %d: accepted %d of %d", i, res.Accepted, len(batch))
		}
		if err := f.Quiesce("net0"); err != nil {
			return out, nil, err
		}
		t2 := time.Now()
		if _, err := f.Advise("net0"); err != nil {
			return out, nil, err
		}
		t3 := time.Now()
		run.start = append(run.start, t0)
		run.enqEnd = append(run.enqEnd, t1)
		run.advStart = append(run.advStart, t2)
		run.end = append(run.end, t3)
		mu.Lock()
		h := time.Time{}
		if len(hooks) > 0 {
			h = hooks[0]
		}
		hooks = hooks[:0]
		mu.Unlock()
		run.hooks = append(run.hooks, h)
		run.events += len(batch)
	}
	runtime.ReadMemStats(&m1)
	run.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	if reg != nil {
		run.after = reg.Snapshot()
		rec := reg.Spans()
		run.spans = rec.Spans()
		if total := rec.Total(); total > uint64(rec.Capacity()) {
			run.spansLost = total - uint64(rec.Capacity())
		}
		f.SetDeliveryHook("net0", nil)
	}
	if out.Advice, err = f.Advise("net0"); err != nil {
		return out, nil, err
	}
	if out.State, err = f.State("net0"); err != nil {
		return out, nil, err
	}
	return out, run, nil
}
