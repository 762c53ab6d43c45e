package main

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzDecodeObserveBody fuzzes the /observe wire decoder. Invariants:
// a decode either fails or yields a batch within the size cap; every
// accepted batch survives a marshal/redecode round trip bit-identically
// (so the batch form is a faithful wire encoding); and the decoder
// never panics, whatever bytes arrive.
func FuzzDecodeObserveBody(f *testing.F) {
	f.Add([]byte(`{"kind":"link-down","link":3}`))
	f.Add([]byte(`{"kind":"link-up","link":0,"label":"probe"}`))
	f.Add([]byte(`{"kind":"demand-scale","scale":1.5}`))
	f.Add([]byte(`{"kind":"demand-delta","deltat":{"entries":[{"s":0,"t":2,"old":1,"new":80}]}}`))
	f.Add([]byte(`[{"kind":"link-down","link":1},{"kind":"link-up","link":1}]`))
	f.Add([]byte(" \t\r\n[{\"kind\":\"link-down\",\"link\":31}]"))
	f.Add([]byte(`[]`))
	f.Add([]byte(``))
	f.Add([]byte(`{`))
	f.Add([]byte(`[{"kind":"link-down","link":1}`))
	f.Add([]byte(`{"kind":"link-down","link":3}garbage`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`"just a string"`))
	f.Add([]byte(`{"kind":"demand-delta","deltad":{"entries":[{"s":1e308,"t":-5}]}}`))
	f.Add([]byte(`{"kind":"link-down","demd":{"n":4294967296,"demands":[]}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := decodeObserveBody(bytes.NewReader(data))
		if err != nil {
			return // rejected input: the only requirement is no panic
		}
		if len(events) > maxObserveBatch {
			t.Fatalf("decoder admitted %d events past the %d cap", len(events), maxObserveBatch)
		}
		// Round trip: re-encoding as the batch form and redecoding must
		// reproduce the events exactly.
		wire, err := json.Marshal(events)
		if err != nil {
			t.Fatalf("re-marshal of accepted batch failed: %v", err)
		}
		again, err := decodeObserveBody(bytes.NewReader(wire))
		if err != nil {
			t.Fatalf("redecode of %q failed: %v", wire, err)
		}
		if len(events) == 0 {
			if len(again) != 0 {
				t.Fatalf("empty batch redecoded to %d events", len(again))
			}
			return
		}
		if !reflect.DeepEqual(events, again) {
			t.Fatalf("round trip changed the batch:\n  first  %+v\n  second %+v", events, again)
		}
	})
}
