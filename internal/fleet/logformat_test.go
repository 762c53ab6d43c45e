package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/scenario"
	"repro/internal/traffic"
)

// goldenEvents is one event of every kind, in the order of goldenLog.
func goldenEvents() []scenario.Event {
	demD := traffic.NewMatrix(2)
	demD.Set(0, 1, 1.5)
	demD.Set(1, 0, 2)
	return []scenario.Event{
		{Kind: scenario.EventLinkDown, Link: 3, Label: "probe"},
		{Kind: scenario.EventLinkUp},
		{Kind: scenario.EventDemand, DemD: demD},
		{
			Kind:   scenario.EventDemandDelta,
			DeltaD: &traffic.Delta{Entries: []traffic.DeltaEntry{{S: 0, T: 1, Old: 1.5, New: 6}}},
			DeltaT: &traffic.Delta{Entries: []traffic.DeltaEntry{{S: 1, T: 0, Old: 2, New: 0.25}}},
			Label:  "surge",
		},
		{Kind: scenario.EventDemandScale, Scale: 1.25},
	}
}

// goldenLog pins the event-log format, one record per kind. The first
// four lines are the format every earlier build of SnapshotVersion 1
// wrote; they must never change, or existing logs stop replaying.
const goldenLog = `{"seq":1,"event":{"kind":"link-down","link":3,"label":"probe"}}
{"seq":2,"event":{"kind":"link-up"}}
{"seq":3,"event":{"kind":"demand","demd":{"n":2,"demands":[0,1.5,2,0]}}}
{"seq":4,"event":{"kind":"demand-delta","deltad":{"entries":[{"s":0,"t":1,"old":1.5,"new":6}]},"deltat":{"entries":[{"s":1,"t":0,"old":2,"new":0.25}]},"label":"surge"}}
{"seq":5,"event":{"kind":"demand-scale","scale":1.25}}
`

// TestEventLogGolden checks that Store.Append writes exactly goldenLog.
func TestEventLogGolden(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Append(1, goldenEvents()); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, eventLogFile))
	if err != nil {
		t.Fatal(err)
	}
	got, want := strings.SplitAfter(string(raw), "\n"), strings.SplitAfter(goldenLog, "\n")
	if len(got) != len(want) {
		t.Fatalf("log has %d lines, want %d:\n%s", len(got), len(want), raw)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d:\n  got  %s  want %s", i+1, got[i], want[i])
		}
	}
}

// TestEventLogReadBack checks that recovery decodes goldenLog into
// exactly the events that were appended.
func TestEventLogReadBack(t *testing.T) {
	recs, err := parseLog("events.log", []byte(goldenLog), 0)
	if err != nil {
		t.Fatal(err)
	}
	events := goldenEvents()
	if len(recs) != len(events) {
		t.Fatalf("read back %d records, want %d", len(recs), len(events))
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) || !reflect.DeepEqual(r.Event, events[i]) {
			t.Fatalf("record %d read back as %d %+v, want %+v", i+1, r.Seq, r.Event, events[i])
		}
	}
}

// parentOnsetLog is a delta onset as earlier builds logged it, with
// dense copies of the surged matrices next to the deltas. No consumer
// read the copies; recovery drops them.
const parentOnsetLog = `{"seq":1,"event":{"kind":"demand-delta","demd":{"n":2,"demands":[0,6,2,0]},"demt":{"n":2,"demands":[0,1,0.25,0]},"deltad":{"entries":[{"s":0,"t":1,"old":1.5,"new":6}]},"deltat":{"entries":[{"s":1,"t":0,"old":2,"new":0.25}]},"label":"surge"}}
`

// TestEventLogReadBackParentOnset checks that recovery decodes an
// earlier build's onset record into the delta event alone.
func TestEventLogReadBackParentOnset(t *testing.T) {
	recs, err := parseLog("events.log", []byte(parentOnsetLog), 0)
	if err != nil {
		t.Fatal(err)
	}
	want := goldenEvents()[3]
	if len(recs) != 1 || recs[0].Seq != 1 || !reflect.DeepEqual(recs[0].Event, want) {
		t.Fatalf("read back %+v, want one record with seq 1 and %+v", recs, want)
	}
}

// TestParentOnsetLogReplays checks that a crashed shard whose log holds
// onset records in the earlier shape restores without a cold start, to
// the state of a twin that observed the deltas alone.
func TestParentOnsetLogReplays(t *testing.T) {
	ev := testEvaluator(t, 8, 40, 41)
	lib := testLibrary(t, ev, 3, 42)
	stream := eventStream(ev, 60, 43)
	var raw bytes.Buffer
	onsets := 0
	for i, e := range stream {
		if e.Kind == scenario.EventDemandDelta {
			e.DemD = ev.DemandDelay().Clone().ApplyDelta(e.DeltaD)
			e.DemT = ev.DemandThroughput().Clone()
			onsets++
		}
		line, err := json.Marshal(LogRecord{Seq: uint64(i + 1), Event: e})
		if err != nil {
			t.Fatal(err)
		}
		raw.Write(append(line, '\n'))
	}
	if onsets == 0 {
		t.Fatal("stream has no demand-delta events")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, eventLogFile), raw.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	sh, err := NewShard(ShardConfig{
		Network: "net0",
		Factory: func() (*Controller, error) { return NewController(ev, lib) },
		Dir:     dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close(context.Background())
	if st := sh.Status(); st.ColdStart || st.Replayed != len(stream) {
		t.Fatalf("shard did not replay the log: %+v", st)
	}
	twinEv := testEvaluator(t, 8, 40, 41)
	twin, err := NewController(twinEv, testLibrary(t, twinEv, 3, 42))
	if err != nil {
		t.Fatal(err)
	}
	if err := twin.ObserveBatch(eventStream(twinEv, 60, 43), 0, 0); err != nil {
		t.Fatal(err)
	}
	c, err := sh.Controller()
	if err != nil {
		t.Fatal(err)
	}
	requireSameState(t, twin, c, "after replaying the earlier log shape")
}

// FuzzParseLog fuzzes the event-log decoder recovery runs on. Whatever
// the bytes and the snapshot's sequence number, parseLog either returns
// a replay run numbered base+1, base+2, … or an error wrapping
// ErrCorrupt with no records — never a partial restore, never a panic.
func FuzzParseLog(f *testing.F) {
	lines := strings.SplitAfter(goldenLog, "\n")
	f.Add([]byte(goldenLog), uint64(0))
	f.Add([]byte(goldenLog), uint64(2))
	f.Add([]byte(goldenLog), uint64(5))
	f.Add([]byte(lines[2]+lines[3]), uint64(2))
	f.Add([]byte(lines[1]+lines[3]), uint64(0))
	f.Add([]byte(goldenLog[:len(goldenLog)-9]), uint64(0))
	f.Add([]byte(""), uint64(7))
	f.Add([]byte("\n"), uint64(0))
	f.Add([]byte(`{"seq":1,"event":{"kind":"demand","demd":{"n":2,"demands":[1,0,0,0]}}}`+"\n"), uint64(0))
	f.Add([]byte(`{"seq":1,"event":{"kind":"link-down"},"crc":7}`+"\n"), uint64(0))
	f.Add([]byte(parentOnsetLog), uint64(0))
	f.Add([]byte(`{"seq":1,"event":{"kind":"link-down","demd":{"n":4294967296,"demands":[]}}}`+"\n"), uint64(0))

	f.Fuzz(func(t *testing.T, raw []byte, base uint64) {
		recs, err := parseLog("events.log", raw, base)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error %v does not wrap ErrCorrupt", err)
			}
			if recs != nil {
				t.Fatalf("error %v returned alongside %d records", err, len(recs))
			}
			return
		}
		for i, r := range recs {
			if r.Seq != base+1+uint64(i) {
				t.Fatalf("record %d has seq %d, want %d", i, r.Seq, base+1+uint64(i))
			}
		}
	})
}
