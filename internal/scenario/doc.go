// Package scenario is the perturbation engine of the routing system: it
// generates sets of hypothetical network states — link failures (single,
// sampled multi-link, shared-risk groups), node failures, and traffic
// surges — and evaluates a weight setting against all of them on a
// worker pool.
//
// A Scenario describes one perturbation: the failure mask it induces on
// the topology, the node (if any) whose traffic disappears, and the
// demand matrices in effect. Generators build Sets of scenarios; a
// Runner fans a Set across workers, with one reusable mask per worker
// and the Evaluator's pooled scratch state per call, and aggregates a
// Report with per-scenario results and worst-case/percentile SLA
// metrics.
//
// Sets also have a temporal rendering: Episodes/Events turn a scenario
// set into a replayable telemetry stream (link-down, link-up, dense
// demand updates, and sparse demand deltas — hot-spot surges render as
// changed-entries-only DemandDelta onset/inverse-recovery pairs) that
// the control plane's Selector consumes — the bridge between the
// offline robustness sweeps and the online serving path. Event is also
// the control plane's one event representation: the /observe wire
// form, the intake queue's unit and the event log's record are this
// struct and its JSON form, with the uniform demand-scale kind carried
// as its one number until the Selector expands it.
// DESIGN.md ("The scenario engine") documents the generators' sampling
// rules and the runner's determinism guarantees.
package scenario
