package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
)

// endToEnd and perLayer list every metric in print order, with units.
// BENCHMARK.json declares the same names.
var endToEnd = []string{"setup_s", "result_p50_ms", "work_per_s", "peak_rss_mb"}

var perLayer = []string{
	"dtrd.observe_ms", "dtrd.apply_ms", "dtrd.advise_ms", "dtrd.body_bytes_per_event",
	"facade.enqueue_us_per_event",
	"fleet.wal_append_us_per_event", "fleet.wal_bytes_per_event",
	"ingest.queue_wait_us", "ingest.coalesce_us_per_batch", "ingest.coalesce_keep_frac",
	"ctrl.observe_batch_ms", "ctrl.advise_us",
	"routing.dests_ms", "routing.resum_ms", "routing.lambda_ms", "routing.fill_ms",
	"routing.dests_per_update", "routing.demand_rebases",
	"spf.dijkstra_runs", "spf.repairs",
	"opt.phase1_s", "opt.phase2_s", "opt.evals",
	"go.alloc_bytes_per_event",
	"trace.unaccounted_frac", "trace.overhead_frac",
}

var units = map[string]string{
	"setup_s": "s", "result_p50_ms": "ms", "work_per_s": "1/s", "peak_rss_mb": "MiB",
	"dtrd.observe_ms": "ms", "dtrd.apply_ms": "ms", "dtrd.advise_ms": "ms", "dtrd.body_bytes_per_event": "B",
	"facade.enqueue_us_per_event":   "us",
	"fleet.wal_append_us_per_event": "us", "fleet.wal_bytes_per_event": "B",
	"ingest.queue_wait_us": "us", "ingest.coalesce_us_per_batch": "us", "ingest.coalesce_keep_frac": "ratio",
	"ctrl.observe_batch_ms": "ms", "ctrl.advise_us": "us",
	"routing.dests_ms": "ms", "routing.resum_ms": "ms", "routing.lambda_ms": "ms", "routing.fill_ms": "ms",
	"routing.dests_per_update": "count", "routing.demand_rebases": "count",
	"spf.dijkstra_runs": "count", "spf.repairs": "count",
	"opt.phase1_s": "s", "opt.phase2_s": "s", "opt.evals": "count",
	"go.alloc_bytes_per_event": "B",
	"trace.unaccounted_frac":   "ratio", "trace.overhead_frac": "ratio",
}

// metric is one measured value and the number of calls or samples it
// rests on.
type metric struct {
	value float64
	n     int
}

// report is one run's outcome.
type report struct {
	attempted, failed int
	errs              []string
	metrics           map[string]metric
	pcts              []pct // advice round percentiles (telemetry workloads)
	notes             []string
	dtrdArgs          []string
	// aliases names what a generic end-to-end metric is on this
	// workload, e.g. result_p50_ms is advice_p50_ms on telemetry.
	aliases map[string]string
}

func (r *report) set(name string, v float64, n int) {
	if _, ok := units[name]; !ok {
		panic("undeclared metric " + name)
	}
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	r.metrics[name] = metric{v, n}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) fail(err error) {
	r.failed++
	if len(r.errs) < 8 {
		r.errs = append(r.errs, err.Error())
	}
}

// hostFacts are recorded with every result: a number is read against
// the host that produced it.
type hostFacts struct {
	GOMAXPROCS int      `json:"gomaxprocs"`
	NumCPU     int      `json:"num_cpu"`
	GoVersion  string   `json:"go_version"`
	CPU        string   `json:"cpu"`
	DtrdFlags  []string `json:"dtrd_flags,omitempty"`
}

func host(dtrdArgs []string) hostFacts {
	h := hostFacts{GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(), CPU: "unknown", DtrdFlags: dtrdArgs}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// print writes the human-readable table, then the result line, which
// carries the end-to-end metrics (traced=false) or the per-layer
// metrics (traced=true).
func (r *report) print(w io.Writer, workload string, seed int64, traced bool) error {
	names, kind := endToEnd, "end-to-end"
	if traced {
		names, kind = perLayer, "per-layer (traced run)"
	}
	hf, _ := json.Marshal(host(r.dtrdArgs))
	fmt.Fprintf(w, "perfbench %s seed %d: %s metrics\n", workload, seed, kind)
	fmt.Fprintf(w, "  host %s\n", hf)
	out := map[string]map[string]any{}
	for _, name := range names {
		m := r.metrics[name]
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is %v", name, m.value)
		}
		mark := fmt.Sprintf("n=%d", m.n)
		if m.n == 0 {
			mark = "not exercised by this workload"
		}
		if a := r.aliases[name]; a != "" {
			mark += ", this workload's " + a
		}
		fmt.Fprintf(w, "  %-30s %16.6f %-6s %s\n", name, m.value, units[name], mark)
		out[name] = map[string]any{"value": m.value, "unit": units[name]}
	}
	for _, p := range r.pcts {
		status := "reported"
		if !p.OK {
			status = fmt.Sprintf("not reported: fewer than %d samples beyond", minBeyond)
		}
		fmt.Fprintf(w, "  advice_p%-22g %16.6f ms     n=%d, %d beyond, %s\n", p.Q*100, p.Value, p.N, p.Beyond, status)
	}
	frac := 0.0
	if r.attempted > 0 {
		frac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "  %-30s %16.6f %-6s %d of %d operations failed\n", "failed_frac", frac, "ratio", r.failed, r.attempted)
	for _, e := range r.errs {
		fmt.Fprintf(w, "  failure: %s\n", e)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   r.failed == 0 && r.attempted > 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
