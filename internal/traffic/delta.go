package traffic

import (
	"fmt"
	"math"
)

// DeltaEntry is one sparse demand change: the pair (S, T) moves from
// Old to New Mbps. Carrying both sides makes a delta self-inverting
// (Inverse) and lets consumers verify it applies to the state they
// hold.
type DeltaEntry struct {
	S   int     `json:"s"`
	T   int     `json:"t"`
	Old float64 `json:"old"`
	New float64 `json:"new"`
}

// Delta is a sparse demand-matrix update: the entries whose values
// change between two matrix states. It is the wire and event form of a
// traffic shift that touches few pairs (a hot-spot surge touches O(1)
// of the n columns), letting the incremental evaluation path recompute
// only the destination columns that actually moved instead of paying a
// full rebase. The zero value is an empty (no-op) delta.
type Delta struct {
	Entries []DeltaEntry `json:"entries"`
}

// Diff returns the sparse delta from old to new: one entry per (s,t)
// pair whose demand differs, in row-major order. The matrices must be
// the same size. Equal matrices yield an empty delta.
func Diff(old, new *Matrix) *Delta {
	if old.n != new.n {
		panic(fmt.Sprintf("traffic: diff of %d-node and %d-node matrices", old.n, new.n))
	}
	d := &Delta{}
	n := old.n
	for i, ov := range old.d {
		if nv := new.d[i]; nv != ov {
			d.Entries = append(d.Entries, DeltaEntry{S: i / n, T: i % n, Old: ov, New: nv})
		}
	}
	return d
}

// Len returns the number of entries.
func (d *Delta) Len() int {
	if d == nil {
		return 0
	}
	return len(d.Entries)
}

// Inverse returns the delta that undoes d (Old and New swapped): if d
// takes a matrix from state A to state B, the inverse takes B back to
// A, bit for bit.
func (d *Delta) Inverse() *Delta {
	if d == nil {
		return nil
	}
	inv := &Delta{Entries: make([]DeltaEntry, len(d.Entries))}
	for i, e := range d.Entries {
		inv.Entries[i] = DeltaEntry{S: e.S, T: e.T, Old: e.New, New: e.Old}
	}
	return inv
}

// Validate checks the delta against an n-node matrix shape: indices in
// range, no diagonal entries, no negative or non-finite demands. A nil
// delta is valid (no-op).
func (d *Delta) Validate(n int) error {
	if d == nil {
		return nil
	}
	for i, e := range d.Entries {
		if e.S < 0 || e.S >= n || e.T < 0 || e.T >= n {
			return fmt.Errorf("traffic: delta entry %d: pair (%d,%d) out of range [0,%d)", i, e.S, e.T, n)
		}
		if e.S == e.T {
			return fmt.Errorf("traffic: delta entry %d: self-demand (%d,%d)", i, e.S, e.T)
		}
		if e.New < 0 || e.Old < 0 {
			return fmt.Errorf("traffic: delta entry %d: negative demand %g -> %g", i, e.Old, e.New)
		}
		if !finite(e.Old) || !finite(e.New) {
			return fmt.Errorf("traffic: delta entry %d: non-finite demand %g -> %g", i, e.Old, e.New)
		}
	}
	return nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// ApplyDelta writes every entry's New value into m, in place, and
// returns m. The delta must validate against m's size (panic
// otherwise, matching Set); Old values are not checked — the delta is
// trusted to describe the transition from m's current state.
func (m *Matrix) ApplyDelta(d *Delta) *Matrix {
	if err := d.Validate(m.n); err != nil {
		panic(err.Error())
	}
	if d == nil {
		return m
	}
	for _, e := range d.Entries {
		m.d[e.S*m.n+e.T] = e.New
	}
	return m
}

// Equal reports whether the two matrices hold bit-identical demands.
// A nil matrix equals only another nil matrix.
func (m *Matrix) Equal(o *Matrix) bool {
	if m == nil || o == nil {
		return m == o
	}
	if m.n != o.n {
		return false
	}
	for i, v := range m.d {
		if o.d[i] != v {
			return false
		}
	}
	return true
}
