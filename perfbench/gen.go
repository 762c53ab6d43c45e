package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"repro"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/topogen"
	"repro/internal/traffic"
)

// telemetryParams defines one telemetry workload: the daemon's network
// and library, and the shape of the event stream posted to it.
type telemetryParams struct {
	topology string
	nodes    int
	links    int // directed links (ignored by hier, which derives them)
	// netSeed seeds the topology, the traffic and the library's weights:
	// it is fixed, so every run serves the same network and library and
	// only the event stream follows the run's seed.
	netSeed int64
	configs int // random weight settings in the library
	// workers is dtrd's -workers. Above 1, the configuration sessions
	// of a round update on several cores, so a round's time follows
	// the machine's cores together rather than whichever one it lands
	// on.
	workers int
	// warmRounds are driven, checked and fed to the reference before
	// the timed window opens, and are not timed.
	warmRounds int
	setups     int // daemon starts per run; setup_s is their median
	// traceRounds is the fixed round count of a traced run, so its
	// work counts repeat exactly.
	traceRounds int

	// hold is the number of batches between an episode's onset and its
	// recovery.
	hold int
	// flapEvery > 0 adds, to every flapEvery-th batch, a link that goes
	// down and comes back within the batch (a flap the coalescer cancels).
	flapEvery int
	// surges > 0 makes a demand stream: that many hot-spot surge onsets
	// per batch, each over surgeSources sources toward one hot node.
	surges, surgeSources int
	// scaleEvery > 0 adds a uniform demand-scale event to every
	// scaleEvery-th batch.
	scaleEvery int
}

var flapsParams = telemetryParams{
	topology: "hier", nodes: 1000, netSeed: 1, configs: 4, workers: 0,
	setups: 3, warmRounds: 2, traceRounds: 30,
	hold: 3, flapEvery: 4,
}

var surgesParams = telemetryParams{
	topology: "rand", nodes: 100, links: 500, netSeed: 1, configs: 4, workers: 2,
	setups: 7, warmRounds: 200, traceRounds: 400,
	hold: 4, surges: 2, surgeSources: 8, scaleEvery: 8,
}

func (p *telemetryParams) spec() repro.NetworkSpec {
	return repro.NetworkSpec{Topology: p.topology, Nodes: p.nodes, Links: p.links, Seed: p.netSeed}
}

// dtrdArgs are the daemon flags of this workload (without -listen).
func (p *telemetryParams) dtrdArgs(weights, ckptDir string) []string {
	return []string{
		"-topology", p.topology, "-nodes", fmt.Sprint(p.nodes), "-links", fmt.Sprint(p.links),
		"-seed", fmt.Sprint(p.netSeed), "-weights", weights,
		"-workers", fmt.Sprint(p.workers), "-checkpoint-dir", ckptDir,
	}
}

// fleetWorkers maps dtrd's -workers onto FleetOptions.Workers (dtrd's 0
// means GOMAXPROCS, which FleetOptions spells as a negative value).
func (p *telemetryParams) fleetWorkers() int {
	if p.workers == 0 {
		return -1
	}
	return p.workers
}

// replica rebuilds the topology and base traffic repro.NewNetwork
// generates for spec, which the facade does not expose: the stream
// generator needs reverse-link pairs and base demands. Only the spec
// fields the workloads set are supported; checkReplica verifies the
// topology against the facade's view.
func replica(spec repro.NetworkSpec) (*graph.Graph, [2]*traffic.Matrix, error) {
	kinds := map[string]topogen.Kind{"rand": topogen.RandKind, "hier": topogen.HierKind}
	kind, ok := kinds[spec.Topology]
	if !ok {
		return nil, [2]*traffic.Matrix{}, fmt.Errorf("replica: unsupported topology %q", spec.Topology)
	}
	const theta = 25 // repro's default SLA bound; diameter defaults to 0.8θ
	rng := rand.New(rand.NewSource(spec.Seed))
	g, err := topogen.Generate(topogen.Spec{
		Kind: kind, Nodes: spec.Nodes, DirectedLinks: spec.Links,
		EdgesPerNode: 3, DiameterMs: 0.8 * theta,
	}, rng)
	if err != nil {
		return nil, [2]*traffic.Matrix{}, err
	}
	demD, demT := traffic.Gravity(g.NumNodes(), 1, 0.3, rng)
	if _, err := routing.ScaleToAvgUtil(g, demD, demT, 0.43); err != nil {
		return nil, [2]*traffic.Matrix{}, err
	}
	return g, [2]*traffic.Matrix{demD, demT}, nil
}

// checkReplica verifies that the replica's links are the facade
// network's, link for link.
func checkReplica(g *graph.Graph, nw *repro.Network) error {
	if g.NumNodes() != nw.Nodes() || g.NumLinks() != nw.Links() {
		return fmt.Errorf("replica has %d nodes/%d links, network %d/%d", g.NumNodes(), g.NumLinks(), nw.Nodes(), nw.Links())
	}
	for l := 0; l < g.NumLinks(); l++ {
		lk, info := g.Link(l), nw.Link(l)
		if g.NodeName(lk.From) != info.From || g.NodeName(lk.To) != info.To ||
			lk.Capacity != info.CapacityMbps || lk.Delay != info.PropDelayMs {
			return fmt.Errorf("replica link %d differs from the network's", l)
		}
	}
	return nil
}

// physicalLinks pairs every directed link with its reverse, one entry
// per physical link.
func physicalLinks(g *graph.Graph) ([][2]int, error) {
	idx := make(map[[2]int]int, g.NumLinks())
	for l, lk := range g.Links() {
		idx[[2]int{lk.From, lk.To}] = l
	}
	var pairs [][2]int
	for l, lk := range g.Links() {
		r, ok := idx[[2]int{lk.To, lk.From}]
		if !ok {
			return nil, fmt.Errorf("link %d has no reverse", l)
		}
		if l < r {
			pairs = append(pairs, [2]int{l, r})
		}
	}
	return pairs, nil
}

// writeWeights writes the library: configs random weight settings
// derived from seed, one file each, and returns their paths.
func writeWeights(nw *repro.Network, configs int, seed int64, dir string) ([]string, error) {
	files := make([]string, configs)
	for i := range files {
		data, err := json.Marshal(nw.RandomRouting(seed*100 + int64(i)))
		if err != nil {
			return nil, err
		}
		files[i] = filepath.Join(dir, fmt.Sprintf("weights-%d.json", i))
		if err := os.WriteFile(files[i], data, 0o644); err != nil {
			return nil, err
		}
	}
	return files, nil
}

// wireEvent is the /observe JSON form of one telemetry event; dtrd
// decodes it into a repro.ControlEvent (field names match case-
// insensitively, omitted fields are zero).
type wireEvent struct {
	Kind   string             `json:"kind"`
	Link   int                `json:"link,omitempty"`
	Scale  float64            `json:"scale,omitempty"`
	DeltaD *repro.DemandDelta `json:"deltad,omitempty"`
	DeltaT *repro.DemandDelta `json:"deltat,omitempty"`
}

// tag names the episode an event belongs to and whether it is part of
// the episode's onset or its recovery.
type tag struct {
	episode int
	onset   bool
}

// batch is one /observe request: its events, their episode tags, and
// the rendered body.
type batch struct {
	events []wireEvent
	tags   []tag
	flap   bool // carries an episode whose onset and recovery share this batch
	body   []byte
}

type episode struct {
	id    int
	born  int      // index of the batch carrying the onset
	pairs []int    // flaps: physical links down
	cells [][2]int // surges: (source, hot node) cells surged
}

// stream renders a workload's batches deterministically from its seed:
// every run with the same seed posts byte-identical bodies.
type stream struct {
	p      *telemetryParams
	rng    *rand.Rand
	pairs  [][2]int
	down   []bool // per physical link, as the daemon will see it
	open   []episode
	nextEp int
	n      int // batches rendered
	base   [2]*traffic.Matrix
	cur    [2]*traffic.Matrix // demand state the daemon will hold
	scale  float64
}

func newStream(p *telemetryParams, g *graph.Graph, base [2]*traffic.Matrix, seed int64) (*stream, error) {
	pairs, err := physicalLinks(g)
	if err != nil {
		return nil, err
	}
	return &stream{
		p: p, rng: rand.New(rand.NewSource(seed)), pairs: pairs,
		down: make([]bool, len(pairs)), base: base,
		cur:   [2]*traffic.Matrix{base[0].Clone(), base[1].Clone()},
		scale: 1,
	}, nil
}

// next renders the next batch.
func (s *stream) next() (*batch, error) {
	b := &batch{}
	if s.p.surges > 0 {
		s.demandBatch(b)
	} else {
		s.linkBatch(b)
	}
	s.n++
	body, err := json.Marshal(b.events)
	if err != nil {
		return nil, err
	}
	b.body = body
	return b, nil
}

func (b *batch) add(e wireEvent, t tag) {
	b.events = append(b.events, e)
	b.tags = append(b.tags, t)
}

// linkBatch: the recovery of the episode started hold batches ago, the
// onset of a new single- or dual-link failure, and on every
// flapEvery-th batch a flap that recovers within the batch. Every
// failure takes down both directions of a physical link.
func (s *stream) linkBatch(b *batch) {
	for len(s.open) > 0 && s.n-s.open[0].born >= s.p.hold {
		ep := s.open[0]
		s.open = s.open[1:]
		for _, pi := range ep.pairs {
			s.linkEvents(b, "link-up", pi, tag{ep.id, false})
			s.down[pi] = false
		}
	}
	ep := episode{id: s.nextEp, born: s.n}
	s.nextEp++
	// Single- and dual-link failures alternate, so every seed posts the
	// same number of events per batch; the seed picks the links.
	for k := 1 + s.n%2; k > 0; k-- {
		pi := s.pickUp(nil)
		ep.pairs = append(ep.pairs, pi)
		s.down[pi] = true
		s.linkEvents(b, "link-down", pi, tag{ep.id, true})
	}
	s.open = append(s.open, ep)
	if s.p.flapEvery > 0 && s.n%s.p.flapEvery == s.p.flapEvery-1 {
		id := s.nextEp
		s.nextEp++
		pi := s.pickUp(ep.pairs)
		s.linkEvents(b, "link-down", pi, tag{id, true})
		s.linkEvents(b, "link-up", pi, tag{id, false})
		b.flap = true
	}
}

func (s *stream) linkEvents(b *batch, kind string, pi int, t tag) {
	for _, l := range s.pairs[pi] {
		b.add(wireEvent{Kind: kind, Link: l}, t)
	}
}

// pickUp draws a physical link that is up and not in avoid.
func (s *stream) pickUp(avoid []int) int {
	for {
		pi := s.rng.Intn(len(s.pairs))
		if s.down[pi] {
			continue
		}
		clash := false
		for _, a := range avoid {
			clash = clash || a == pi
		}
		if !clash {
			return pi
		}
	}
}

// demandBatch: on every scaleEvery-th batch a uniform demand-scale
// event first, then the recovery of the surges started hold batches
// ago (their cells return to the scaled base level), then new hot-spot
// surge onsets, each multiplying surgeSources demands toward one node.
func (s *stream) demandBatch(b *batch) {
	if s.p.scaleEvery > 0 && s.n%s.p.scaleEvery == s.p.scaleEvery-1 {
		s.scale = 0.85 + 0.3*s.rng.Float64()
		s.cur = [2]*traffic.Matrix{s.base[0].Clone().Scale(s.scale), s.base[1].Clone().Scale(s.scale)}
		b.add(wireEvent{Kind: "demand-scale", Scale: s.scale}, tag{-1, true})
	}
	for len(s.open) > 0 && s.n-s.open[0].born >= s.p.hold {
		ep := s.open[0]
		s.open = s.open[1:]
		var d [2]*repro.DemandDelta
		for c := range d {
			d[c] = &repro.DemandDelta{}
			for _, st := range ep.cells {
				d[c].Entries = append(d[c].Entries, s.set(c, st, s.base[c].At(st[0], st[1])*s.scale))
			}
		}
		b.add(wireEvent{Kind: "demand-delta", DeltaD: d[0], DeltaT: d[1]}, tag{ep.id, false})
	}
	n := s.cur[0].Size()
	for k := 0; k < s.p.surges; k++ {
		ep := episode{id: s.nextEp, born: s.n}
		s.nextEp++
		hot := s.rng.Intn(n)
		factor := 1.5 + 1.5*s.rng.Float64()
		for _, src := range s.rng.Perm(n)[:s.p.surgeSources+1] {
			if src != hot && len(ep.cells) < s.p.surgeSources {
				ep.cells = append(ep.cells, [2]int{src, hot})
			}
		}
		var d [2]*repro.DemandDelta
		for c := range d {
			d[c] = &repro.DemandDelta{}
			for _, st := range ep.cells {
				d[c].Entries = append(d[c].Entries, s.set(c, st, s.cur[c].At(st[0], st[1])*factor))
			}
		}
		s.open = append(s.open, ep)
		b.add(wireEvent{Kind: "demand-delta", DeltaD: d[0], DeltaT: d[1]}, tag{ep.id, true})
	}
}

// set moves one cell of class c to v in the model and returns the
// delta entry that does the same on the daemon.
func (s *stream) set(c int, st [2]int, v float64) repro.DemandDeltaEntry {
	old := s.cur[c].At(st[0], st[1])
	s.cur[c].Set(st[0], st[1], v)
	return repro.DemandDeltaEntry{S: st[0], T: st[1], Old: old, New: v}
}
