package plan

import (
	"encoding/json"
	"testing"

	"pstap/internal/pipeline"
)

// FuzzPlanFile runs stapd's -planfile sequence on arbitrary bytes: decode
// the JSON into a File, sign it under a test secret (a hostile file that
// carries a valid signature), verify, then take its assignment and
// placement. Either step may refuse the file; none may panic. A file it
// accepts has a valid assignment and, when it names nodes, a placement
// tiling tasks 0-6 with one range per node. The seeds are the files
// `stapplan -emit` writes with and without -distnodes. CI runs it for
// 10 s; a failing input lands under testdata/fuzz/FuzzPlanFile.
func FuzzPlanFile(f *testing.F) {
	f.Add([]byte(`{"size":"paper","machine":"paragon","assign":[24,9,56,8,8,8,5],` +
		`"placement":"0-2/3-6","nodes":["127.0.0.1:7441","127.0.0.1:7442"],` +
		`"predicted":{"period_sec":0.1716515905816057,"throughput_cpis_per_sec":5.825754346998522,` +
		`"eq2_latency_sec":0.6866063623264228,"eq3_latency_sec":0.6538083234651462},` +
		`"sig":"vcXOmAZJ/4qJWaA2QfsvdWLXO0AzqxqCQJWOyCtawrY="}`))
	f.Add([]byte(`{"size":"paper","machine":"paragon","assign":[24,9,56,8,8,8,5],` +
		`"predicted":{"period_sec":0.1716515905816057,"throughput_cpis_per_sec":5.825754346998522,` +
		`"eq2_latency_sec":0.6866063623264228,"eq3_latency_sec":0.6538083234651462},` +
		`"sig":"urrN1BRP6ldIvI5kjpjaUJsqVHWzlcBxXCA7VBZ73kI="}`))
	f.Add([]byte(`{"assign":[1,1,1,1,1,1,1],"nodes":["a","b","c","d","e","f","g","h"]}`))
	f.Add([]byte(`{"assign":[1,1,1,1,1,1,0],"placement":"0-6/7","nodes":["a"]}`))
	secret := []byte("fuzz-secret")
	f.Fuzz(func(t *testing.T, data []byte) {
		var pf File
		if json.Unmarshal(data, &pf) != nil {
			return
		}
		if err := pf.Sign(secret); err != nil {
			return
		}
		if !pf.Verify(secret) {
			t.Fatal("a file signed under the secret does not verify")
		}
		a, err := pf.Assignment()
		if err != nil {
			return
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("accepted assignment %v does not validate: %v", a, err)
		}
		p, err := pf.ParsedPlacement()
		if err != nil {
			return
		}
		if p == nil {
			if len(pf.Nodes) != 0 {
				t.Fatalf("no placement for %d nodes", len(pf.Nodes))
			}
			return
		}
		if len(p) != len(pf.Nodes) {
			t.Fatalf("placement %s has %d ranges for %d nodes", p, len(p), len(pf.Nodes))
		}
		next := 0
		for _, r := range p {
			if r[0] != next || r[1] < r[0] {
				t.Fatalf("placement %s does not tile the tasks", p)
			}
			next = r[1] + 1
		}
		if next != pipeline.NumTasks {
			t.Fatalf("placement %s covers tasks 0-%d", p, next-1)
		}
	})
}
