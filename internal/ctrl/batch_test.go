package ctrl

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/routing"
	"repro/internal/scenario"
	"repro/internal/traffic"
)

func batchTestSelectors(t *testing.T, nodes, links int, seed int64) (ev *routing.Evaluator, seq, bat *Selector) {
	t.Helper()
	ev = ctrlTestEvaluator(t, nodes, links, seed)
	rng := rand.New(rand.NewSource(seed + 1))
	ws := make([]*routing.WeightSetting, 3)
	for i := range ws {
		ws[i] = routing.RandomWeightSetting(links, 20, rng)
	}
	build := func() *Selector {
		lib, err := FromWeightSettings(ev, nil, ws, scenario.Set{})
		if err != nil {
			t.Fatal(err)
		}
		sel, err := NewSelector(ev, lib)
		if err != nil {
			t.Fatal(err)
		}
		return sel
	}
	return ev, build(), build()
}

// mixedBatch interleaves link runs (with restatements), a sparse delta
// and a dense update, so one ObserveBatch exercises the link-run
// accumulator, the flush-on-demand boundary and the final flush.
func mixedBatch(ev *routing.Evaluator) []scenario.Event {
	surge := ev.DemandThroughput().Clone().Scale(1.4)
	return []scenario.Event{
		{Kind: scenario.EventLinkDown, Link: 0},
		{Kind: scenario.EventLinkDown, Link: 3},
		{Kind: scenario.EventLinkDown, Link: 0}, // restates: dedups on both paths
		{Kind: scenario.EventDemandDelta, DeltaT: &traffic.Delta{Entries: []traffic.DeltaEntry{
			{S: 0, T: 1, Old: ev.DemandThroughput().At(0, 1), New: 42},
		}}},
		{Kind: scenario.EventLinkUp, Link: 3},
		{Kind: scenario.EventLinkDown, Link: 5},
		{Kind: scenario.EventDemand, DemT: surge},
		{Kind: scenario.EventLinkUp, Link: 0},
		{Kind: scenario.EventLinkUp, Link: 0}, // restates
	}
}

func sameSelectorState(t *testing.T, seq, bat *Selector, at string) {
	t.Helper()
	for i := 0; i < seq.Library().Size(); i++ {
		if seq.Result(i).Cost != bat.Result(i).Cost || seq.Result(i).PhiNorm != bat.Result(i).PhiNorm {
			t.Fatalf("%s: candidate %d diverged: %+v vs %+v", at, i, seq.Result(i), bat.Result(i))
		}
	}
	is, _ := seq.Advise()
	ib, _ := bat.Advise()
	if is != ib {
		t.Fatalf("%s: advise diverged: %d vs %d", at, is, ib)
	}
	if !reflect.DeepEqual(seq.DownLinks(), bat.DownLinks()) {
		t.Fatalf("%s: down links diverged: %v vs %v", at, seq.DownLinks(), bat.DownLinks())
	}
}

// TestObserveBatchMatchesSequential: a raw (uncoalesced) batch must
// leave the selector bit-identical to one-at-a-time delivery —
// including the Events counter, since an uncoalesced batch carries the
// same effective transitions the sequential path counts.
func TestObserveBatchMatchesSequential(t *testing.T) {
	ev, seq, bat := batchTestSelectors(t, 10, 40, 7)
	events := mixedBatch(ev)
	for _, e := range events {
		if err := seq.Observe(e); err != nil {
			t.Fatalf("sequential: %v", err)
		}
	}
	if err := bat.ObserveBatch(events, 0, 0); err != nil {
		t.Fatalf("batch: %v", err)
	}
	sameSelectorState(t, seq, bat, "mixed batch")
	if seq.Events() != bat.Events() {
		t.Fatalf("events counter diverged: sequential %d, batch %d", seq.Events(), bat.Events())
	}
}

// TestObserveBatchRandomized drives both paths with seeded random
// streams of raw batches (no coalescing) across several batch sizes.
func TestObserveBatchRandomized(t *testing.T) {
	for _, seed := range []int64{3, 11} {
		_, seq, bat := batchTestSelectors(t, 12, 48, seed)
		rng := rand.New(rand.NewSource(seed + 50))
		links := 48
		for round := 0; round < 6; round++ {
			batch := make([]scenario.Event, 1+rng.Intn(20))
			for i := range batch {
				kind := scenario.EventLinkDown
				if rng.Intn(2) == 0 {
					kind = scenario.EventLinkUp
				}
				batch[i] = scenario.Event{Kind: kind, Link: rng.Intn(links)}
			}
			for _, e := range batch {
				if err := seq.Observe(e); err != nil {
					t.Fatalf("sequential: %v", err)
				}
			}
			if err := bat.ObserveBatch(batch, 0, 0); err != nil {
				t.Fatalf("batch: %v", err)
			}
			sameSelectorState(t, seq, bat, "randomized")
			if seq.Events() != bat.Events() {
				t.Fatalf("events counter diverged: %d vs %d", seq.Events(), bat.Events())
			}
		}
	}
}

// TestObserveBatchValidationAborts: a malformed event anywhere in the
// batch must reject the whole batch before any mutation.
func TestObserveBatchValidationAborts(t *testing.T) {
	_, _, sel := batchTestSelectors(t, 8, 32, 5)
	bad := []scenario.Event{
		{Kind: scenario.EventLinkDown, Link: 1},
		{Kind: scenario.EventLinkDown, Link: 999}, // out of range
	}
	err := sel.ObserveBatch(bad, 0, 0)
	if err == nil || !strings.Contains(err.Error(), "batch event 1") {
		t.Fatalf("err = %v, want batch event 1 out-of-range", err)
	}
	if sel.Events() != 0 {
		t.Fatalf("events counter advanced to %d on a rejected batch", sel.Events())
	}
	if len(sel.DownLinks()) != 0 {
		t.Fatalf("rejected batch mutated link state: %v", sel.DownLinks())
	}

	badDelta := []scenario.Event{
		{Kind: scenario.EventLinkDown, Link: 1},
		{Kind: scenario.EventDemandDelta, DeltaT: &traffic.Delta{Entries: []traffic.DeltaEntry{
			{S: 2, T: 2, Old: 0, New: 5}, // self-demand
		}}},
	}
	if err := sel.ObserveBatch(badDelta, 0, 0); err == nil {
		t.Fatal("self-demand delta accepted")
	}
	if sel.Events() != 0 || len(sel.DownLinks()) != 0 {
		t.Fatalf("rejected batch mutated state: events=%d down=%v", sel.Events(), sel.DownLinks())
	}
}

// TestDemandScaleIsDenseExpansion: a demand-scale event leaves the
// selector exactly where the dense event base×scale does (nil matrices
// at 0 or 1), restatements included, and Validate admits only finite,
// non-negative scales and no matrices outside a dense demand event.
func TestDemandScaleIsDenseExpansion(t *testing.T) {
	ev, dense, scaled := batchTestSelectors(t, 8, 32, 13)
	for _, f := range []float64{1.5, 1.5, 0.7, 1, 0, 2} {
		e := scenario.Event{Kind: scenario.EventDemand}
		if f != 0 && f != 1 {
			e.DemD = ev.DemandDelay().Clone().Scale(f)
			e.DemT = ev.DemandThroughput().Clone().Scale(f)
		}
		if err := dense.Observe(e); err != nil {
			t.Fatal(err)
		}
		if err := scaled.Observe(scenario.Event{Kind: scenario.EventDemandScale, Scale: f}); err != nil {
			t.Fatal(err)
		}
		sameSelectorState(t, dense, scaled, fmt.Sprintf("scale %g", f))
		dD, dT := dense.Demands()
		sD, sT := scaled.Demands()
		if !dD.Equal(sD) || !dT.Equal(sT) || dense.Events() != scaled.Events() {
			t.Fatalf("scale %g: demands or event count diverged (%d vs %d events)", f, dense.Events(), scaled.Events())
		}
	}
	m := ev.DemandDelay().Clone()
	for _, e := range []scenario.Event{
		{Kind: scenario.EventDemandScale, Scale: -1},
		{Kind: scenario.EventDemandScale, Scale: math.NaN()},
		{Kind: scenario.EventDemandScale, Scale: math.Inf(1)},
		{Kind: scenario.EventDemandScale, Scale: 2, DemD: m},
		{Kind: scenario.EventDemandDelta, DemT: m},
		{Kind: scenario.EventLinkDown, Link: 1, DemD: m},
	} {
		if err := scaled.Validate(e); err == nil {
			t.Errorf("invalid event accepted: %+v", e)
		}
	}
}

func TestObserveBatchEmptyAndSingle(t *testing.T) {
	_, seq, bat := batchTestSelectors(t, 8, 32, 9)
	if err := bat.ObserveBatch(nil, 0, 0); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	if bat.Events() != 0 {
		t.Fatalf("empty batch advanced events counter to %d", bat.Events())
	}
	one := []scenario.Event{{Kind: scenario.EventLinkDown, Link: 2}}
	if err := seq.Observe(one[0]); err != nil {
		t.Fatal(err)
	}
	if err := bat.ObserveBatch(one, 0, 0); err != nil {
		t.Fatal(err)
	}
	sameSelectorState(t, seq, bat, "single-event batch")
}
