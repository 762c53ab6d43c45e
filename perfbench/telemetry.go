package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"reflect"
	"strings"
	"time"

	"repro"
	"repro/internal/traffic"
)

// round is the client-side timing of one closed-loop round.
type round struct {
	observe, apply, advise time.Duration
}

func (r round) total() time.Duration { return r.observe + r.apply + r.advise }

// drive is the outcome of posting a stream to a daemon.
type drive struct {
	attempted, failed int
	errs              []string // first few failures, for the report
	rounds            []round  // successful rounds only
	acked             []*batch // batches the daemon admitted, in order
	events            int      // events in timed acked batches
	bytes             int      // request bytes of timed acked batches
	window            time.Duration
}

func (d *drive) fail(err error) {
	d.failed++
	if len(d.errs) < 5 {
		d.errs = append(d.errs, err.Error())
	}
}

// ack is the 202 body of POST /observe.
type ack struct {
	Accepted int     `json:"accepted"`
	LastSeq  *uint64 `json:"last_seq"`
}

// runRound performs one round: POST the batch to /observe, POST
// /fleet/quiesce (returns once every admitted event reached the
// selector), GET /advise. admitted reports whether the daemon took the
// batch, which holds even when a later step fails. seq is the count of
// events admitted before this batch.
func runRound(d *daemon, b *batch, seq uint64, configs int) (r round, admitted bool, err error) {
	t0 := time.Now()
	code, body, err := d.do("POST", "/observe", b.body)
	t1 := time.Now()
	if err != nil {
		return r, false, fmt.Errorf("POST /observe: %w", err)
	}
	if code != http.StatusAccepted {
		return r, false, fmt.Errorf("POST /observe: status %d: %.200s", code, body)
	}
	var a ack
	if err := json.Unmarshal(body, &a); err != nil {
		return r, true, fmt.Errorf("POST /observe: bad ack: %w", err)
	}
	want := seq + uint64(len(b.events))
	if a.Accepted != len(b.events) || a.LastSeq == nil || *a.LastSeq != want {
		return r, true, fmt.Errorf("POST /observe: ack %.200s, want accepted %d last_seq %d", body, len(b.events), want)
	}
	code, body, err = d.do("POST", "/fleet/quiesce?network=net0", nil)
	t2 := time.Now()
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("status %d: %.200s", code, body)
	}
	if err != nil {
		return r, true, fmt.Errorf("POST /fleet/quiesce: %w", err)
	}
	code, body, err = d.do("GET", "/advise?network=net0", nil)
	t3 := time.Now()
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("status %d: %.200s", code, body)
	}
	if err != nil {
		return r, true, fmt.Errorf("GET /advise: %w", err)
	}
	var adv repro.Advice
	if err := json.Unmarshal(body, &adv); err != nil {
		return r, true, fmt.Errorf("GET /advise: %w", err)
	}
	if adv.Config < 0 || adv.Config >= configs {
		return r, true, fmt.Errorf("GET /advise: config %d out of range", adv.Config)
	}
	return round{observe: t1.Sub(t0), apply: t2.Sub(t1), advise: t3.Sub(t2)}, true, nil
}

// driveDaemon runs warm closed-loop rounds over batches from next,
// then timed ones for the window or, when rounds > 0, for that many
// rounds. Only timed rounds enter rounds, events and bytes; every
// failed round, warm-up included, counts against the run, and none is
// retried or skipped.
func driveDaemon(d *daemon, next func() (*batch, error), warm int, window time.Duration, rounds, configs int) (*drive, error) {
	out := &drive{}
	var seq uint64
	var t0 time.Time
	for i := 0; ; i++ {
		if i == warm {
			t0 = time.Now()
		}
		timed := i >= warm
		if timed && (rounds > 0 && i-warm == rounds || rounds == 0 && time.Since(t0) >= window) {
			break
		}
		b, err := next()
		if err != nil {
			return nil, err
		}
		out.attempted++
		r, admitted, err := runRound(d, b, seq, configs)
		if admitted {
			out.acked = append(out.acked, b)
			seq += uint64(len(b.events))
			if timed {
				out.events += len(b.events)
				out.bytes += len(b.body)
			}
		}
		if err != nil {
			out.fail(err)
			continue
		}
		if timed {
			out.rounds = append(out.rounds, r)
		}
	}
	out.window = time.Since(t0)
	return out, nil
}

// served is what the daemon reports after the stream: its advice and
// its controller state.
type served struct {
	Advice repro.Advice
	State  repro.ControllerState
}

func fetchServed(d *daemon) (served, error) {
	var s served
	for _, q := range []struct {
		path string
		v    any
	}{{"/advise?network=net0", &s.Advice}, {"/state?network=net0", &s.State}} {
		code, body, err := d.do("GET", q.path, nil)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("status %d: %.200s", code, body)
		}
		if err == nil {
			err = json.Unmarshal(body, q.v)
		}
		if err != nil {
			return s, fmt.Errorf("GET %s: %w", q.path, err)
		}
	}
	return s, nil
}

// sameServed compares the daemon's final advice and state with the
// reference's: configuration and its evaluation, down links, events
// consumed, and every configuration's score.
func sameServed(got, want served) error {
	if !reflect.DeepEqual(got.Advice, want.Advice) {
		return fmt.Errorf("advice %+v, reference %+v", got.Advice, want.Advice)
	}
	g, w := got.State, want.State
	if g.Events != w.Events {
		return fmt.Errorf("state: %d events, reference %d", g.Events, w.Events)
	}
	if len(g.DownLinks) != len(w.DownLinks) || len(g.DownLinks) > 0 && !reflect.DeepEqual(g.DownLinks, w.DownLinks) {
		return fmt.Errorf("state: down links %v, reference %v", g.DownLinks, w.DownLinks)
	}
	if !reflect.DeepEqual(g.Configs, w.Configs) || g.Active != w.Active {
		return fmt.Errorf("state: configuration scores differ from the reference")
	}
	return nil
}

// telemetryEnv is everything a telemetry run prepares before timing:
// the facade network the daemon and the reference serve, the replica's
// base demands (for rendering demand-scale events as the facade does),
// the library files, and the stream source.
type telemetryEnv struct {
	p       *telemetryParams
	dir     string
	dtrd    string
	nw      *repro.Network
	base    [2]*traffic.Matrix
	weights []string
	newStr  func() (*stream, error)
	starts  int
}

func prepareTelemetry(p *telemetryParams, seed int64, dir, dtrd string) (*telemetryEnv, error) {
	nw, err := repro.NewNetwork(p.spec())
	if err != nil {
		return nil, err
	}
	g, base, err := replica(p.spec())
	if err != nil {
		return nil, err
	}
	if err := checkReplica(g, nw); err != nil {
		return nil, err
	}
	weights, err := writeWeights(nw, p.configs, p.netSeed, dir)
	if err != nil {
		return nil, err
	}
	env := &telemetryEnv{p: p, dir: dir, dtrd: dtrd, nw: nw, base: base, weights: weights}
	env.newStr = func() (*stream, error) { return newStream(p, g, base, seed) }
	return env, nil
}

// start launches a fresh daemon (empty checkpoint directory) and
// checks that it serves the generator's network.
func (env *telemetryEnv) start() (*daemon, time.Duration, []string, error) {
	env.starts++
	ckpt := filepath.Join(env.dir, fmt.Sprintf("ckpt-%d", env.starts))
	args := env.p.dtrdArgs(strings.Join(env.weights, ","), ckpt)
	d, setup, err := startDaemon(env.dtrd, args, filepath.Join(env.dir, fmt.Sprintf("dtrd-%d.log", env.starts)))
	if err != nil {
		return nil, 0, nil, err
	}
	var cfg struct {
		Nodes, Links int
		Configs      []string
	}
	code, body, err := d.do("GET", "/config?network=net0", nil)
	if err == nil && code == http.StatusOK {
		err = json.Unmarshal(body, &cfg)
	} else if err == nil {
		err = fmt.Errorf("status %d", code)
	}
	if err == nil && (cfg.Nodes != env.nw.Nodes() || cfg.Links != env.nw.Links() || len(cfg.Configs) != env.p.configs) {
		err = fmt.Errorf("dtrd serves %d nodes/%d links/%d configs, generator has %d/%d/%d",
			cfg.Nodes, cfg.Links, len(cfg.Configs), env.nw.Nodes(), env.nw.Links(), env.p.configs)
	}
	if err != nil {
		d.stop()
		return nil, 0, nil, fmt.Errorf("GET /config: %w", err)
	}
	return d, setup, args, nil
}

// runTelemetry is the untraced run: set the daemon up several times,
// drive the last one for the window, check its final state against a
// reference fleet fed the admitted batches.
func runTelemetry(p *telemetryParams, seed int64, seconds int, dir, dtrd string) (*report, error) {
	env, err := prepareTelemetry(p, seed, dir, dtrd)
	if err != nil {
		return nil, err
	}
	rep := &report{aliases: map[string]string{"result_p50_ms": "advice_p50_ms", "work_per_s": "events_per_s"}}
	var setups []float64
	var d *daemon
	for i := 0; i < p.setups; i++ {
		dd, setup, args, err := env.start()
		if err != nil {
			return nil, err
		}
		setups = append(setups, setup.Seconds())
		rep.dtrdArgs = args
		if i < p.setups-1 {
			if err := dd.stop(); err != nil {
				return nil, fmt.Errorf("dtrd exit: %w", err)
			}
			continue
		}
		d = dd
	}
	defer d.stop()
	dr, _, rss, err := env.driveAndCheck(d, rep, p.warmRounds, time.Duration(seconds)*time.Second, 0)
	if err != nil {
		return nil, err
	}

	totals := make([]float64, len(dr.rounds))
	for i, r := range dr.rounds {
		totals[i] = float64(r.total()) / 1e6
	}
	p50 := percentile(totals, 0.5)
	rep.set("setup_s", median(setups), len(setups))
	rep.set("result_p50_ms", p50.Value, len(totals))
	rep.set("work_per_s", float64(dr.events)/dr.window.Seconds(), dr.events)
	rep.set("peak_rss_mb", rss, 1)
	rep.pcts = []pct{p50, percentile(totals, 0.9), percentile(totals, 0.99)}
	rep.note("advice rounds: %d in %.2fs after %d warm-up rounds, %d events, %d request bytes", len(dr.rounds), dr.window.Seconds(), p.warmRounds, dr.events, dr.bytes)
	return rep, nil
}

// driveAndCheck drives d over the workload's stream, warm rounds and
// then the window or, when rounds > 0, that many rounds, reads the daemon's peak
// RSS, stops it, and checks its final advice and state against an
// untraced in-process replay of the admitted batches. Failures count
// in rep; the replay's timings are returned for the traced run.
func (env *telemetryEnv) driveAndCheck(d *daemon, rep *report, warm int, window time.Duration, rounds int) (*drive, *replayRun, float64, error) {
	str, err := env.newStr()
	if err != nil {
		return nil, nil, 0, err
	}
	dr, err := driveDaemon(d, str.next, warm, window, rounds, env.p.configs)
	if err != nil {
		return nil, nil, 0, err
	}
	got, check := fetchServed(d)
	rss, err := peakRSSMiB(d.cmd.Process.Pid)
	if err != nil {
		return nil, nil, 0, err
	}
	if err := d.stop(); err != nil {
		return nil, nil, 0, fmt.Errorf("dtrd exit: %w", err)
	}
	rep.attempted, rep.failed, rep.errs = dr.attempted+1, dr.failed, dr.errs
	want, plain, err := env.replay(dr.acked, filepath.Join(env.dir, "wal-reference"), nil)
	if err != nil {
		return nil, nil, 0, err
	}
	if check == nil {
		check = sameServed(got, want)
	}
	if check != nil {
		rep.fail(fmt.Errorf("final check: %w", check))
	}
	return dr, plain, rss, nil
}
