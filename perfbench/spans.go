package main

import (
	"sort"
	"strings"
	"time"

	"repro/internal/obsv"
)

// interval is a closed time range.
type interval struct{ a, b time.Time }

// unionLen is the total length covered by the intervals.
func unionLen(iv []interval) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i].a.Before(iv[j].a) })
	var total time.Duration
	var cur interval
	for i, x := range iv {
		switch {
		case i == 0:
			cur = x
		case !x.a.After(cur.b):
			if x.b.After(cur.b) {
				cur.b = x.b
			}
		default:
			total += cur.b.Sub(cur.a)
			cur = x
		}
	}
	if len(iv) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// clip limits x to [lo, hi]; ok is false when nothing remains.
func clip(x interval, lo, hi time.Time) (interval, bool) {
	if x.a.Before(lo) {
		x.a = lo
	}
	if x.b.After(hi) {
		x.b = hi
	}
	return x, x.b.After(x.a)
}

// workerSpan is the per-worker task span of a parallel recompute
// region; it is the region's own work, so it folds into the region.
const workerSpan = "session.worker"

// spanAgg sums recorded spans by name.
type spanAgg struct {
	self  map[string]time.Duration // duration minus the union of child spans
	dur   map[string]time.Duration
	count map[string]int
}

// aggregate computes per-name totals over spans. A span's self time is
// its duration minus the part its children cover (children of parallel
// sessions overlap, so the union is taken). Worker task spans count as
// their region's own time, not as children.
func aggregate(spans []obsv.SpanRecord) spanAgg {
	agg := spanAgg{self: map[string]time.Duration{}, dur: map[string]time.Duration{}, count: map[string]int{}}
	children := make(map[uint64][]int)
	for i := range spans {
		if spans[i].Parent != 0 && spans[i].Name != workerSpan {
			children[spans[i].Parent] = append(children[spans[i].Parent], i)
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.Name == workerSpan {
			continue
		}
		var iv []interval
		for _, c := range children[s.ID] {
			if x, ok := clip(interval{spans[c].Start, spans[c].End}, s.Start, s.End); ok {
				iv = append(iv, x)
			}
		}
		d := s.Duration()
		agg.dur[s.Name] += d
		agg.self[s.Name] += d - unionLen(iv)
		agg.count[s.Name]++
	}
	return agg
}

// sumPrefix totals a per-name map over names with the prefix.
func sumPrefix[T int | time.Duration](m map[string]T, prefix string) T {
	var t T
	for k, v := range m {
		if strings.HasPrefix(k, prefix) {
			t += v
		}
	}
	return t
}

// sessionUpdates are the root spans of routing.Session updates.
var sessionUpdates = []string{"session.init", "session.weight", "session.link", "session.link_batch", "session.demand", "session.demand_delta"}

func (a spanAgg) updates() int {
	n := 0
	for _, name := range sessionUpdates {
		n += a.count[name]
	}
	return n
}

// counter sums every series of a counter family in a registry snapshot.
func counter(s obsv.Snapshot, name string) float64 {
	t := 0.0
	for _, m := range s.Metrics {
		if m.Name != name {
			continue
		}
		for _, ser := range m.Series {
			if ser.Value != nil {
				t += *ser.Value
			}
		}
	}
	return t
}

// delta is counter(after) - counter(before).
func delta(before, after obsv.Snapshot, name string) float64 {
	return counter(after, name) - counter(before, name)
}
