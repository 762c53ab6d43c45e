package traffic

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func TestDiffApplyInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	base, _ := Gravity(12, 10, 0.3, rng)
	surged := base.Clone()
	surged.Set(0, 3, surged.At(0, 3)*4)
	surged.Set(7, 3, surged.At(7, 3)*2.5)
	surged.Set(2, 9, 0)
	surged.Set(4, 1, surged.At(4, 1)+1.25)

	d := Diff(base, surged)
	if d.Len() != 4 {
		t.Fatalf("diff has %d entries, want 4", d.Len())
	}
	if err := d.Validate(12); err != nil {
		t.Fatalf("valid delta rejected: %v", err)
	}

	fwd := base.Clone().ApplyDelta(d)
	if !fwd.Equal(surged) {
		t.Fatal("ApplyDelta(Diff(a,b)) did not reproduce b")
	}
	back := fwd.ApplyDelta(d.Inverse())
	if !back.Equal(base) {
		t.Fatal("inverse delta did not restore the base matrix")
	}

	if empty := Diff(base, base); empty.Len() != 0 {
		t.Fatalf("diff of equal matrices not empty: %+v", empty)
	}
}

func TestDeltaValidate(t *testing.T) {
	cases := []struct {
		name string
		d    *Delta
	}{
		{"out-of-range-s", &Delta{Entries: []DeltaEntry{{S: 5, T: 0, New: 1}}}},
		{"out-of-range-t", &Delta{Entries: []DeltaEntry{{S: 0, T: -1, New: 1}}}},
		{"diagonal", &Delta{Entries: []DeltaEntry{{S: 2, T: 2, New: 1}}}},
		{"negative-new", &Delta{Entries: []DeltaEntry{{S: 0, T: 1, New: -3}}}},
		{"negative-old", &Delta{Entries: []DeltaEntry{{S: 0, T: 1, Old: -3, New: 1}}}},
		{"nan-new", &Delta{Entries: []DeltaEntry{{S: 0, T: 1, New: math.NaN()}}}},
		{"inf-new", &Delta{Entries: []DeltaEntry{{S: 0, T: 1, New: math.Inf(1)}}}},
		{"nan-old", &Delta{Entries: []DeltaEntry{{S: 0, T: 1, Old: math.NaN(), New: 1}}}},
		{"inf-old", &Delta{Entries: []DeltaEntry{{S: 0, T: 1, Old: math.Inf(1), New: 1}}}},
	}
	for _, tc := range cases {
		if err := tc.d.Validate(4); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	var nilDelta *Delta
	if err := nilDelta.Validate(4); err != nil {
		t.Errorf("nil delta rejected: %v", err)
	}
	if nilDelta.Len() != 0 || nilDelta.Inverse() != nil {
		t.Error("nil delta accessors must be no-ops")
	}
	m := NewMatrix(4)
	if m.ApplyDelta(nil) != m {
		t.Error("applying a nil delta must return the matrix")
	}
}

func TestDeltaJSONRoundTrip(t *testing.T) {
	d := &Delta{Entries: []DeltaEntry{{S: 1, T: 2, Old: 0.5, New: 2.25}}}
	data, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"entries":[{"s":1,"t":2,"old":0.5,"new":2.25}]}`
	if string(data) != want {
		t.Fatalf("delta JSON = %s, want %s", data, want)
	}
	var back Delta
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&back, d) {
		t.Fatalf("round trip changed delta: %+v", back)
	}
}

func TestMatrixEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a, _ := Gravity(6, 1, 0.5, rng)
	if !a.Equal(a.Clone()) {
		t.Error("clone not equal")
	}
	b := a.Clone()
	b.Set(0, 1, b.At(0, 1)+1e-12)
	if a.Equal(b) {
		t.Error("perturbed matrix equal")
	}
	if a.Equal(NewMatrix(7)) {
		t.Error("size mismatch equal")
	}
	var nilM *Matrix
	if nilM.Equal(a) || a.Equal(nilM) || !nilM.Equal(nil) {
		t.Error("nil equality wrong")
	}
}
