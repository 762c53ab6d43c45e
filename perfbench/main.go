// Command perfbench is the repository's end-to-end benchmark. One run
// measures one workload from a seed and prints every metric by name
// with its unit, then a one-line JSON result:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Workloads:
//
//	flaps   link-failure telemetry posted to a real dtrd (1000-node hier network)
//	surges  hot-spot demand telemetry posted to a real dtrd (100-node random network)
//	search  repro.Network.Optimize in process, the planner's time to a robust solution
//
// An untraced run (-trace 0) reports the end-to-end metrics; a traced
// run (-trace 1) reports the per-layer table; -workload all runs the
// three in turn. Build and run it through
// run.sh from the repository root, which builds dtrd from the same tree:
//
//	bash perfbench/run.sh --workload flaps --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"syscall"
	"time"
)

// deadline bounds the run of one workload: past it the benchmark stops
// its daemons and fails rather than hang.
const deadline = 175 * time.Second

func main() {
	workload := flag.String("workload", "", "flaps, surges, search, or all (each in turn)")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "1: traced run, per-layer metrics; 0: end-to-end metrics")
	dtrd := flag.String("dtrd", "", "dtrd binary built from the tree under test")
	work := flag.String("work", "", "scratch directory for weight files, logs and checkpoints")
	record := flag.Int("record", 0, "print the search digests of seeds 0..N-1 (96 sub-seeds each) in the form of search_digests.json, and exit")
	flag.Parse()
	if *record > 0 {
		m, err := recordDigests(&searchP, *record, 96)
		if err == nil {
			var data []byte
			if data, err = json.MarshalIndent(m, "", "  "); err == nil {
				fmt.Printf("%s\n", data)
				return
			}
		}
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	workloads := []string{*workload}
	if *workload == "all" {
		workloads = []string{"flaps", "surges", "search"}
	}
	go watchdog(time.Duration(len(workloads)) * deadline)
	for _, w := range workloads {
		if err := run(w, *seed, *seconds, *trace == 1, *dtrd, *work); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			stopDaemons()
			os.Exit(1)
		}
	}
}

func run(workload string, seed int64, seconds int, traced bool, dtrd, work string) error {
	if seconds < 1 {
		return fmt.Errorf("-seconds %d: need at least 1", seconds)
	}
	var rep *report
	var err error
	switch workload {
	case "flaps", "surges":
		p := &flapsParams
		if workload == "surges" {
			p = &surgesParams
		}
		if dtrd == "" || work == "" {
			return fmt.Errorf("telemetry workloads need -dtrd and -work")
		}
		dir := filepath.Join(work, fmt.Sprintf("%s-%d-%d", workload, seed, os.Getpid()))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		if traced {
			rep, err = traceTelemetry(p, seed, dir, dtrd)
		} else {
			rep, err = runTelemetry(p, seed, seconds, dir, dtrd)
		}
		if err != nil {
			return fmt.Errorf("%w (logs in %s)", err, dir)
		}
		os.RemoveAll(dir)
	case "search":
		recorded, err := loadDigests()
		if err != nil {
			return err
		}
		if traced {
			rep, err = traceSearch(&searchP, seed, recorded)
		} else {
			rep, err = runSearch(&searchP, seed, seconds, recorded)
		}
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown -workload %q (flaps|surges|search)", workload)
	}
	return rep.print(os.Stdout, workload, seed, traced)
}

// Every started daemon is registered so a signal or the watchdog can
// stop it before the benchmark exits.
var (
	daemonsMu sync.Mutex
	daemons   = map[*daemon]bool{}
)

func stopDaemons() {
	daemonsMu.Lock()
	ds := make([]*daemon, 0, len(daemons))
	for d := range daemons {
		ds = append(ds, d)
	}
	daemonsMu.Unlock()
	for _, d := range ds {
		d.stop()
	}
}

// watchdog ends the run on SIGINT/SIGTERM or once limit passes,
// stopping every daemon first.
func watchdog(limit time.Duration) {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "perfbench: %v: stopping\n", s)
	case <-time.After(limit):
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v: stopping\n", limit)
	}
	stopDaemons()
	os.Exit(1)
}
