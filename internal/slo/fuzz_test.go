package slo

import (
	"encoding/json"
	"testing"
)

// FuzzSLOFile runs stapd's -slofile sequence on arbitrary bytes: decode
// the JSON into a File, sign it under a test secret (a hostile file that
// carries a valid signature), verify, then validate. Validate may refuse
// the file; nothing may panic. A file it accepts declares at least one
// objective, each with a name, a series, a known kind and a positive
// threshold, and no name twice. The seed is the file `stapslo` writes for
// the two objectives of its usage text. CI runs it for 10 s; a failing
// input lands under testdata/fuzz/FuzzSLOFile.
func FuzzSLOFile(f *testing.F) {
	f.Add([]byte(`{"slos":[{"name":"eq2-latency","series":"r0/cluster/eq2_latency_seconds",` +
		`"kind":"latency_bound","threshold":0.25,"objective":0.9},` +
		`{"name":"throughput","series":"serve/jobs_per_sec","kind":"throughput_floor","threshold":2}],` +
		`"sig":"8Xz0aRh/yuJsx8C4dyl/B9RBnuNEeMkkP6NNI/cFXrA="}`))
	f.Add([]byte(`{"slos":[{"name":"a","series":"s","kind":"upper","threshold":1},` +
		`{"name":"a","series":"s","kind":"lower","threshold":-1}]}`))
	f.Add([]byte(`{"slos":[]}`))
	secret := []byte("fuzz-secret")
	f.Fuzz(func(t *testing.T, data []byte) {
		var sf File
		if json.Unmarshal(data, &sf) != nil {
			return
		}
		if err := sf.Sign(secret); err != nil {
			return
		}
		if !sf.Verify(secret) {
			t.Fatal("a file signed under the secret does not verify")
		}
		if sf.Validate() != nil {
			return
		}
		if len(sf.SLOs) == 0 {
			t.Fatal("accepted a file with no objectives")
		}
		seen := make(map[string]bool)
		for _, s := range sf.SLOs {
			if err := s.Validate(); err != nil {
				t.Fatalf("accepted spec %q does not validate: %v", s.Name, err)
			}
			if seen[s.Name] {
				t.Fatalf("accepted duplicate name %q", s.Name)
			}
			seen[s.Name] = true
		}
	})
}
