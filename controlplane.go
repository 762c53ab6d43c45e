package repro

import (
	"fmt"

	"repro/internal/ctrl"
	"repro/internal/fleet"
	"repro/internal/routing"
	"repro/internal/scenario"
	"repro/internal/traffic"
)

// Library is a set of precomputed routing configurations covering a
// scenario space, bound to the network it was built for. Build one with
// Network.BuildLibrary (scenario clustering + per-cluster robust
// optimization), assemble one from saved routings with
// Network.LibraryFromRoutings, or reload one with
// Network.LibraryFromJSON.
type Library struct {
	lib *ctrl.Library
	net *Network
}

// Size returns the number of configurations.
func (l *Library) Size() int { return l.lib.Size() }

// Names lists the configuration names in index order.
func (l *Library) Names() []string {
	names := make([]string, l.lib.Size())
	for i, e := range l.lib.Entries {
		names[i] = e.Name
	}
	return names
}

// Routing returns configuration i as a Routing bound to the library's
// network (a copy; mutating it never touches the library).
func (l *Library) Routing(i int) (*Routing, error) {
	if i < 0 || i >= l.lib.Size() {
		return nil, fmt.Errorf("repro: configuration %d out of range [0,%d)", i, l.lib.Size())
	}
	return &Routing{w: l.lib.Entries[i].W.Clone(), net: l.net}, nil
}

// MarshalJSON encodes the library (weights via the routing codec), so
// it can be stored and reloaded with Network.LibraryFromJSON.
func (l *Library) MarshalJSON() ([]byte, error) { return l.lib.MarshalJSON() }

// LibraryFromJSON decodes a library saved with MarshalJSON and binds it
// to this network. Link counts must match.
func (n *Network) LibraryFromJSON(data []byte) (*Library, error) {
	var lib ctrl.Library
	if err := lib.UnmarshalJSON(data); err != nil {
		return nil, err
	}
	if lib.Links() != n.g.NumLinks() {
		return nil, fmt.Errorf("repro: library covers %d links, network has %d", lib.Links(), n.g.NumLinks())
	}
	return &Library{lib: &lib, net: n}, nil
}

// LibraryFromRoutings assembles a library from already-optimized
// routings (e.g. dtropt -weights-out files), without scenario
// clustering or fingerprints. names may be nil.
func (n *Network) LibraryFromRoutings(names []string, routings ...*Routing) (*Library, error) {
	ws := make([]*routing.WeightSetting, len(routings))
	for i, r := range routings {
		if r == nil {
			return nil, fmt.Errorf("repro: nil routing at position %d", i)
		}
		ws[i] = r.w
	}
	lib, err := ctrl.FromWeightSettings(n.ev, names, ws, scenario.Set{})
	if err != nil {
		return nil, err
	}
	return &Library{lib: lib, net: n}, nil
}

// LibraryOptions controls Network.BuildLibrary.
type LibraryOptions struct {
	// Size is the target number of configurations (default 4); the
	// library may come out smaller when the scenario space has fewer
	// distinct behaviours.
	Size int
	// Budget selects the per-cluster search effort: "quick", "std"
	// (default) or "paper", as in OptimizeOptions.
	Budget string
	// SessionMemoryBudgetBytes caps the incremental-session memory of
	// each cluster search (0 = the 1 GiB default); see OptimizeOptions.
	SessionMemoryBudgetBytes int64
	// Workers is the per-session recompute worker budget of the cluster
	// searches (0 or 1 = serial); see OptimizeOptions.Workers.
	Workers int
	// Seed drives the search and the clustering.
	Seed int64
}

// BuildLibrary precomputes a configuration library for a scenario set:
// Phase 1 runs once; the scenario space is clustered by each scenario's
// objective response; each cluster gets its own robust (Phase 2)
// search; every entry is fingerprinted against the full set. All
// entries satisfy the normal-conditions constraints of Eqs. (5)-(6), so
// switching between them never trades away normal performance beyond
// the paper's χ tolerance.
func (n *Network) BuildLibrary(set *ScenarioSet, opts LibraryOptions) (*Library, error) {
	if set == nil {
		return nil, fmt.Errorf("repro: nil scenario set")
	}
	if set.net != n {
		return nil, fmt.Errorf("repro: scenario set %q was built from a different network", set.Name())
	}
	cfg, err := optConfigForBudget(opts.Budget)
	if err != nil {
		return nil, err
	}
	cfg.Seed = opts.Seed
	cfg.SessionBudgetBytes = opts.SessionMemoryBudgetBytes
	cfg.Parallelism = opts.Workers
	lib, err := ctrl.BuildLibrary(n.ev, set.set, ctrl.BuildConfig{K: opts.Size, Opt: cfg})
	if err != nil {
		return nil, err
	}
	return &Library{lib: lib, net: n}, nil
}

// DemandDelta is a sparse demand update: the (source, destination)
// entries whose demand changes, each carrying the value before and
// after in Mbps. It is the wire form of a traffic shift that touches
// few pairs — a hot-spot surge touches O(1) of the n destination
// columns — and the control plane evaluates it incrementally,
// recomputing only the touched columns per candidate configuration.
// JSON shape: {"entries":[{"s":0,"t":3,"old":1.5,"new":6.0},…]}.
type DemandDelta = traffic.Delta

// DemandDeltaEntry is one entry of a DemandDelta.
type DemandDeltaEntry = traffic.DeltaEntry

// ControlEvent is one telemetry update fed to a Fleet, and the JSON
// object an /observe body carries: a directed link going down or coming
// back ("link-down"/"link-up" with "link"), a uniform demand-scale
// update ("demand-scale" with "scale"; 0 or 1 restores the base
// traffic), or a sparse demand-delta update ("demand-delta" with
// "deltad"/"deltat"). "network" routes the event to a fleet member ("" =
// the default network) and "label" is an optional provenance tag
// carried to audit taps. It is the engine's event type itself, so it
// reaches the intake, the selector and the event log unconverted; Fleet
// admits only these four kinds and no dense matrices. Richer dense
// traffic shifts enter through Fleet.ReplayEpisode, which replays
// scenario-set episodes.
type ControlEvent = scenario.Event

// Advice reports the configuration a network's controller would run
// now.
type Advice struct {
	// Config and Name identify the best library configuration for the
	// current conditions; Evaluation is its (bit-exact) score there.
	Config int
	Name   string
	Evaluation
	// Active is the currently deployed configuration (-1 mid-migration);
	// ShouldSwitch is Config != Active.
	Active       int
	ShouldSwitch bool
}

func adviceFrom(a fleet.Advice) Advice {
	return Advice{
		Config:       a.Config,
		Name:         a.Name,
		Evaluation:   toEval(&a.Result),
		Active:       a.Active,
		ShouldSwitch: a.ShouldSwitch,
	}
}

// MigrationStep is one link rewrite of a migration plan.
type MigrationStep struct {
	// Link is the rewritten directed link; Delay and Throughput its new
	// class weights.
	Link              int
	Delay, Throughput int
	// Evaluation is the network state after this step under the
	// planning conditions; LoopFree records the independent
	// forwarding-loop verification of that intermediate state.
	Evaluation Evaluation
	LoopFree   bool
}

// MigrationPlan is an ordered, verified migration from the deployed
// weights toward a library configuration.
type MigrationPlan struct {
	// Target and TargetName identify the destination configuration.
	Target     int
	TargetName string
	// Steps are the rewrites in apply order; every step was
	// SLA-evaluated and verified loop-free when planned.
	Steps []MigrationStep
	// Complete reports whether the plan reaches the target; otherwise
	// Remaining links are left for a later stage (staged partial
	// migration) and Blocked reports that no SLA-feasible step existed.
	Complete  bool
	Remaining int
	Blocked   bool
	// Start, Final and TargetEval evaluate the current weights, the
	// post-plan weights and the full target under planning conditions.
	Start, Final, TargetEval Evaluation

	// p is the fleet-layer plan this facade view was built from;
	// Fleet.Apply hands it back to the core, which refuses a plan whose
	// base no longer matches the deployed weights (stale plan).
	p *fleet.Plan
}

func planFrom(p *fleet.Plan) *MigrationPlan {
	plan := &MigrationPlan{
		Target:     p.Target,
		TargetName: p.TargetName,
		Complete:   p.P.Complete,
		Remaining:  p.P.Remaining,
		Blocked:    p.P.Blocked,
		Start:      toEval(&p.P.Start),
		Final:      toEval(&p.P.Final),
		TargetEval: toEval(&p.P.Target),
		p:          p,
	}
	for _, st := range p.P.Steps {
		plan.Steps = append(plan.Steps, MigrationStep{
			Link:       st.Link,
			Delay:      int(st.Delay),
			Throughput: int(st.Throughput),
			Evaluation: toEval(&st.Result),
			LoopFree:   st.LoopFree,
		})
	}
	return plan
}

// ConfigState is one configuration's live score.
type ConfigState struct {
	Name string
	Evaluation
}

// ControllerState is a snapshot of one network's controller.
type ControllerState struct {
	// Active and ActiveName identify the deployed configuration; Active
	// is -1 (and ActiveName "partial-migration") mid-migration.
	Active     int
	ActiveName string
	// Deployed evaluates the deployed weights under current conditions.
	Deployed Evaluation
	// DownLinks lists the links currently observed down; Events counts
	// telemetry events consumed.
	DownLinks []int
	Events    int
	// Configs scores every library configuration under the current
	// conditions, in library order.
	Configs []ConfigState
}

func stateFrom(s fleet.State) ControllerState {
	st := ControllerState{
		Active:     s.Active,
		ActiveName: s.ActiveName,
		Deployed:   toEval(&s.Deployed),
		DownLinks:  s.DownLinks,
		Events:     s.Events,
	}
	for _, cs := range s.Configs {
		st.Configs = append(st.Configs, ConfigState{Name: cs.Name, Evaluation: toEval(&cs.Result)})
	}
	return st
}
