package dist

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"strings"
	"testing"
	"time"

	"pstap/internal/leakcheck"
	"pstap/internal/mac"
	"pstap/internal/pipeline"
	"pstap/internal/radar"
)

func TestPlacementParseValidateOwners(t *testing.T) {
	leakcheck.Check(t)
	p, err := ParsePlacement("0-2/3-6", 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := p.String(); got != "0-2/3-6" {
		t.Errorf("String = %q", got)
	}

	// Default placement tiles the tasks and always validates.
	for nodes := 1; nodes <= pipeline.NumTasks; nodes++ {
		d := DefaultPlacement(nodes)
		if err := d.Validate(); err != nil {
			t.Errorf("DefaultPlacement(%d) = %s: %v", nodes, d, err)
		}
	}

	// Empty spec falls back to the default split.
	p2, err := ParsePlacement("", 3)
	if err != nil {
		t.Fatal(err)
	}
	if p2.String() != DefaultPlacement(3).String() {
		t.Errorf("empty spec = %s, want %s", p2, DefaultPlacement(3))
	}

	for _, bad := range []string{"0-2/4-6", "0-3/3-6", "3-6/0-2", "0-2", "0-2/3-6/x"} {
		p, err := ParsePlacement(bad, 2)
		if err == nil {
			err = p.Validate()
		}
		if err == nil {
			t.Errorf("ParsePlacement(%q) accepted", bad)
		}
	}

	// Single-task ranges may be written without the dash, and round-trip
	// through String in the same shorthand.
	p3, err := ParsePlacement("0-4/5/6", 3)
	if err != nil {
		t.Fatal(err)
	}
	if p3[1] != [2]int{5, 5} || p3[2] != [2]int{6, 6} {
		t.Errorf("bare single-task ranges parsed as %v", p3)
	}
	if got := p3.String(); got != "0-4/5/6" {
		t.Errorf("String = %q, want 0-4/5/6", got)
	}
}

func TestParsePlacementErrorNamesNode(t *testing.T) {
	leakcheck.Check(t)
	// Malformed range syntax must point at the offending node so a
	// many-node spec is debuggable from the message alone.
	for _, tc := range []struct {
		spec string
		node string // 1-based index expected in the error
	}{
		{"x-2/3-6", "node 1"},
		{"0-2/3-y", "node 2"},
		{"0-2/3-", "node 2"},
		{"-2/3-6", "node 1"},
		{"0-1/2-3/q-6", "node 3"},
		{"0-2/ /3-6", "node 2"},
	} {
		_, err := ParsePlacement(tc.spec, strings.Count(tc.spec, "/")+1)
		if err == nil {
			t.Errorf("ParsePlacement(%q) accepted", tc.spec)
			continue
		}
		if !strings.Contains(err.Error(), tc.node) {
			t.Errorf("ParsePlacement(%q) error %q does not name %s", tc.spec, err, tc.node)
		}
		if !strings.Contains(err.Error(), tc.spec) {
			t.Errorf("ParsePlacement(%q) error %q does not quote the spec", tc.spec, err)
		}
	}
}

func TestManifestSigPrefix(t *testing.T) {
	leakcheck.Check(t)
	p, _ := ParsePlacement("0-2/3-6", 2)
	man := &Manifest{
		Session: "abc123",
		Scene:   radar.DefaultScene(radar.Small()),
		Assign:  pipeline.NewAssignment(2, 1, 2, 1, 1, 2, 1),
		Nodes:   []NodeSpec{{Addr: "a:1", Tasks: p[0]}, {Addr: "b:2", Tasks: p[1]}},
	}
	if got := man.SigPrefix(); got != "unsigned" {
		t.Errorf("unsigned manifest SigPrefix = %q", got)
	}
	if _, err := man.Sign([]byte("s3cret")); err != nil {
		t.Fatal(err)
	}
	got := man.SigPrefix()
	if len(got) != 8 {
		t.Errorf("SigPrefix %q, want 8 hex chars", got)
	}
	if got != hex.EncodeToString(man.Sig[:4]) {
		t.Errorf("SigPrefix %q does not match Sig prefix", got)
	}

	a := pipeline.NewAssignment(2, 1, 2, 1, 1, 2, 1)
	owners := p.Owners(a)
	if len(owners) != a.Total()+1 {
		t.Fatalf("Owners: %d entries, want %d", len(owners), a.Total()+1)
	}
	if owners[len(owners)-1] != 0 {
		t.Errorf("driver rank owner = %d, want coordinator", owners[len(owners)-1])
	}
	// Ranks of tasks 0-2 (doppler=2, easyW=1, hardW=2 → ranks 0..4) live on
	// node 1; tasks 3-6 (ranks 5..9) on node 2.
	for r := 0; r < 5; r++ {
		if owners[r] != 1 {
			t.Errorf("rank %d owner = %d, want 1", r, owners[r])
		}
	}
	for r := 5; r < a.Total(); r++ {
		if owners[r] != 2 {
			t.Errorf("rank %d owner = %d, want 2", r, owners[r])
		}
	}

	// HostedRanks and Tasks agree with Owners.
	g1 := p.HostedRanks(a, 1)
	if g1.First != 0 || g1.N != 5 {
		t.Errorf("HostedRanks(1) = %+v", g1)
	}
	g2 := p.HostedRanks(a, 2)
	if g2.First != 5 || g2.N != a.Total()-5 {
		t.Errorf("HostedRanks(2) = %+v", g2)
	}
	host1 := p.Tasks(1)
	for task := 0; task < pipeline.NumTasks; task++ {
		want := task <= 2
		if host1(task) != want {
			t.Errorf("Tasks(1)(%d) = %v, want %v", task, host1(task), want)
		}
	}
}

func TestManifestSignVerify(t *testing.T) {
	leakcheck.Check(t)
	p, _ := ParsePlacement("0-2/3-6", 2)
	man := &Manifest{
		Session:   "abc123",
		Scene:     radar.DefaultScene(radar.Small()),
		Assign:    pipeline.NewAssignment(2, 1, 2, 1, 1, 2, 1),
		Nodes:     []NodeSpec{{Addr: "a:1", Tasks: p[0]}, {Addr: "b:2", Tasks: p[1]}},
		Heartbeat: time.Second,
	}
	secret := []byte("s3cret")
	signed, err := man.Sign(secret)
	if err != nil {
		t.Fatal(err)
	}
	got, err := verifyManifest(secret, signed, man.Sig)
	if err != nil {
		t.Fatalf("freshly signed manifest does not verify: %v", err)
	}
	if got.Session != man.Session || !reflect.DeepEqual(got.Nodes, man.Nodes) || got.Heartbeat != man.Heartbeat ||
		!bytes.Equal(got.Sig, man.Sig) {
		t.Errorf("verified manifest %+v, want %+v", got, man)
	}
	if _, err := verifyManifest([]byte("other"), signed, man.Sig); err == nil {
		t.Error("manifest verifies under the wrong secret")
	}
	tampered := bytes.Replace(signed, []byte("a:1"), []byte("e:1"), 1)
	if bytes.Equal(tampered, signed) {
		t.Fatal("node address not found in the signed form")
	}
	if _, err := verifyManifest(secret, tampered, man.Sig); err == nil {
		t.Error("tampered manifest still verifies")
	}
	// The MAC is checked before anything is decoded: garbage under a wrong
	// MAC is refused as unsigned; only under the right one does it reach
	// the decoder.
	garbage := bytes.Repeat([]byte{0xff}, 64)
	if _, err := verifyManifest(secret, garbage, man.Sig); err == nil || !strings.Contains(err.Error(), "signature") {
		t.Errorf("garbage under a wrong MAC: %v, want a signature error", err)
	}
	if _, err := verifyManifest(secret, garbage, mac.Sum(secret, garbage)); err == nil || !strings.Contains(err.Error(), "decode") {
		t.Errorf("garbage under its own MAC: %v, want a decode error", err)
	}
}
