package jobapi

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzRequest drives the submit path's decoding of untrusted JSON: decode,
// Validate, Normalize, CacheKey. An accepted request must be canonical —
// marshalling it, decoding that payload and normalizing again yields the
// same bytes and the same key — because the gateway reruns a job on
// another node from exactly that payload and routes it by that key.
func FuzzRequest(f *testing.F) {
	f.Add([]byte(`{"bench":"fft_1","scale":0.002,"seed":3,"max_iter":30,"label":"smoke"}`))
	f.Add([]byte(`{"bench":"adaptec1","seed":0,"strategy":"lbub","model":"fno32","allow_draft":true}`))
	f.Add([]byte(`{"bench":"fft_1","scale":-0,"mode":"baseline","grid":64,"timeout":"30s","trace":true}`))
	f.Add([]byte(`{"bench":"<b>& ","label":"\ud800","scale":1e308}`))
	f.Add([]byte(`{"bench":"fft_1","scale":5e-324,"seed":-9223372036854775808}`))
	f.Fuzz(func(t *testing.T, b []byte) {
		var r Request
		if json.Unmarshal(b, &r) != nil || r.Validate() != nil {
			return
		}
		r.Normalize()
		key := r.CacheKey()
		payload, err := json.Marshal(&r)
		if err != nil {
			t.Fatalf("accepted request does not marshal: %v", err)
		}
		var again Request
		if err := json.Unmarshal(payload, &again); err != nil {
			t.Fatalf("payload %s does not decode: %v", payload, err)
		}
		if err := again.Validate(); err != nil {
			t.Fatalf("payload %s no longer validates: %v", payload, err)
		}
		again.Normalize()
		payload2, err := json.Marshal(&again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(payload, payload2) {
			t.Fatalf("payload not canonical:\n%s\n%s", payload, payload2)
		}
		if k := again.CacheKey(); k != key {
			t.Fatalf("key changed across the payload: %q vs %q", key, k)
		}
	})
}
