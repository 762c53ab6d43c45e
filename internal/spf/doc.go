// Package spf implements the shortest-path machinery for destination-based
// routing with ECMP: reverse Dijkstra toward a destination, membership in
// the resulting shortest-path DAG, all-to-one traffic accumulation with
// even splitting (the standard OSPF/Fortz–Thorup model), per-source
// worst/mean path-delay dynamic programs over the DAG, and dynamic
// shortest-path repair for link events.
//
// All entry points operate through a reusable Workspace so that hot loops
// (thousands of evaluations per optimization run) allocate nothing. A
// Workspace's outputs for one destination can be snapshotted into a State
// and later Restored, which is how the incremental evaluation engine
// (routing.Session) caches one SPF per destination per scenario.
//
// Two properties make those cached snapshots exact rather than
// approximate:
//
//   - The load accumulation is pull-based and canonical: per-link loads
//     are a function of the distances alone, independent of the order in
//     which Dijkstra settled equal-distance nodes, so a snapshot and a
//     fresh run produce bit-identical floats (AccumulateLoadsInto).
//   - Link changes are classified against a snapshot with a few
//     distance comparisons per changed link (routing.Session's
//     classifier): provably-unchanged destinations are skipped outright,
//     membership-only changes refresh the DAG without touching
//     distances, and only genuine distance changes need shortest-path
//     work.
//
// For that last class, the package provides Ramalingam–Reps-style repair
// (Workspace.RepairBatch, State.RepairBatch): the standing SPF is updated
// by recomputing only the vertices whose distance actually changes,
// which on large topologies is a small set for almost every link event.
// A LinkChange describes a weight move, a failure or a restoration by
// its effective weights, and a single change is a batch of one. The
// repair's invariants — exact distances, a valid ascending settled order
// modulo ties, derived DAG membership — are documented in batch.go;
// DESIGN.md ("Incremental SPF repair") explains how they compose with
// the session caches and when callers fall back to a full Dijkstra.
package spf
