package cpifile

import (
	"bytes"
	"path/filepath"
	"testing"

	"pstap/internal/cube"
	"pstap/internal/pipeline"
	"pstap/internal/radar"
	"pstap/internal/stap"
)

func sampleFile(t testing.TB, n int) (*File, *radar.Scene) {
	t.Helper()
	sc := radar.DefaultScene(radar.Small())
	f := &File{Params: sc.Params, Targets: sc.Targets, Seed: sc.Seed}
	for i := 0; i < n; i++ {
		f.CPIs = append(f.CPIs, sc.GenerateCPI(i))
	}
	return f, sc
}

func TestRoundTripBuffer(t *testing.T) {
	f, _ := sampleFile(t, 3)
	var buf bytes.Buffer
	if err := f.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seed != f.Seed || len(got.CPIs) != 3 || len(got.Targets) != len(f.Targets) {
		t.Fatal("metadata lost")
	}
	for i := range f.CPIs {
		if !got.CPIs[i].Equalish(f.CPIs[i], 0) {
			t.Fatalf("CPI %d not bit-identical after round trip", i)
		}
	}
}

func TestSaveLoad(t *testing.T) {
	f, _ := sampleFile(t, 2)
	path := filepath.Join(t.TempDir(), "cpis.gob")
	if err := f.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.CPIs) != 2 {
		t.Fatal("CPIs lost")
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "nope.gob")); err == nil {
		t.Error("missing file should error")
	}
}

func TestReadGarbage(t *testing.T) {
	if _, err := Read(bytes.NewBufferString("not a gob stream")); err == nil {
		t.Error("garbage should error")
	}
}

func TestValidateCatchesBadShapes(t *testing.T) {
	f, _ := sampleFile(t, 1)
	f.CPIs[0] = cube.New(radar.RawOrder, 1, 1, 1)
	if f.Validate() == nil {
		t.Error("bad cube shape should fail validation")
	}
	f.CPIs[0] = nil
	if f.Validate() == nil {
		t.Error("nil cube should fail validation")
	}
	// A truncated payload under an intact header: Dim right, Data short.
	f.CPIs[0] = cube.New(radar.RawOrder, f.Params.K, f.Params.J, f.Params.N)
	f.CPIs[0].Data = f.CPIs[0].Data[:10]
	if f.Validate() == nil {
		t.Error("cube with fewer samples than its shape should fail validation")
	}
	f2, _ := sampleFile(t, 1)
	f2.Params.K = 0
	if f2.Validate() == nil {
		t.Error("bad params should fail validation")
	}
}

func TestReplayPanicsOutOfRange(t *testing.T) {
	f, _ := sampleFile(t, 1)
	src := f.Replay()
	defer func() {
		if recover() == nil {
			t.Error("out-of-range replay should panic")
		}
	}()
	src(5)
}

func TestReplayThroughPipelineMatchesSerial(t *testing.T) {
	// Replaying recorded cubes must give the same reports as processing
	// them directly — the full record/replay path.
	f, sc := sampleFile(t, 5)
	pr := stap.NewProcessor(sc)
	var want [][]stap.Detection
	for i := 0; i < 5; i++ {
		want = append(want, pr.Process(f.CPIs[i]).Detections)
	}
	res, err := pipeline.Run(pipeline.Config{
		Scene:     f.Scene(),
		Assign:    pipeline.NewAssignment(2, 1, 1, 1, 1, 1, 1),
		NumCPIs:   5,
		Warmup:    1,
		Cooldown:  1,
		RawSource: f.Replay(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if len(res.Detections[i]) != len(want[i]) {
			t.Fatalf("CPI %d: %d vs %d detections", i, len(res.Detections[i]), len(want[i]))
		}
		for j := range want[i] {
			a, b := res.Detections[i][j], want[i][j]
			if a.Range != b.Range || a.DopplerBin != b.DopplerBin || a.Beam != b.Beam {
				t.Fatalf("CPI %d detection %d differs", i, j)
			}
		}
	}
}

func TestSceneReconstruction(t *testing.T) {
	f, sc := sampleFile(t, 1)
	got := f.Scene()
	if got.Seed != sc.Seed || len(got.Targets) != len(sc.Targets) {
		t.Error("scene reconstruction lost metadata")
	}
	if !got.GenerateCPI(0).Equalish(f.CPIs[0], 0) {
		t.Error("default-scene recording should regenerate bit-exactly")
	}
}

// TestReadTruncated feeds every strict prefix class of a valid recording
// back through Read: each must produce a descriptive error, never a panic.
func TestReadTruncated(t *testing.T) {
	f, _ := sampleFile(t, 2)
	var buf bytes.Buffer
	if err := f.Write(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, n := range []int{0, 1, 7, len(full) / 2, len(full) - 1} {
		if _, err := Read(bytes.NewReader(full[:n])); err == nil {
			t.Errorf("Read of %d/%d bytes: want error, got nil", n, len(full))
		}
	}
	// Corrupt (not just truncated) content.
	flipped := append([]byte(nil), full...)
	for i := len(flipped) / 4; i < len(flipped)/2; i++ {
		flipped[i] ^= 0xA5
	}
	if _, err := Read(bytes.NewReader(flipped)); err == nil {
		t.Error("Read of corrupted bytes: want error, got nil")
	}
}
