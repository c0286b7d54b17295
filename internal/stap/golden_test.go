package stap

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pstap/internal/linalg"
	"pstap/internal/radar"
	"pstap/internal/scenario"
)

// goldenCPIs is how many CPIs of each stream the pinned digests cover:
// enough for the easy history to fill (EasyTrainingCPIs) and the hard
// factors to be updated recursively several times.
const goldenCPIs = 6

// goldenPath holds one line per (case, CPI): the SHA-256 of that CPI's
// detections and of the easy and hard weights the processor trained on it.
// The file was generated from the kernels as they stood before they gained
// caller-owned workspaces and output buffers, and is never regenerated:
// it pins that rewrite (and any later one) to the original rounding.
var goldenPath = filepath.Join("testdata", "golden_digests.txt")

type goldenCase struct {
	name  string
	scene *radar.Scene
	cpi   func(i int) *cubeT
}

// goldenCases is the default scene at Small and Medium plus every
// catalog scenario at Small (seed 1, the quality gate's pin).
func goldenCases(t *testing.T) []goldenCase {
	var cases []goldenCase
	for _, p := range []radar.Params{radar.Small(), radar.Medium()} {
		sc := radar.DefaultScene(p)
		cases = append(cases, goldenCase{
			name:  fmt.Sprintf("default/%dx%dx%d", p.K, p.J, p.N),
			scene: sc,
			cpi:   sc.GenerateCPI,
		})
	}
	for _, s := range scenario.Catalog() {
		in, err := s.Instantiate(radar.Small(), 1)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, goldenCase{name: "scenario/" + s.Name, scene: in.Base, cpi: in.CPI})
	}
	return cases
}

func hashFloat(h hash.Hash, v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	h.Write(b[:])
}

func hashInt(h hash.Hash, v int) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(int64(v)))
	h.Write(b[:])
}

func hashMatrix(h hash.Hash, m *linalg.Matrix) {
	hashInt(h, m.Rows)
	hashInt(h, m.Cols)
	for _, v := range m.Data {
		hashFloat(h, real(v))
		hashFloat(h, imag(v))
	}
}

func detectionsDigest(dets []Detection) string {
	h := sha256.New()
	hashInt(h, len(dets))
	for _, d := range dets {
		hashInt(h, d.Range)
		hashInt(h, d.DopplerBin)
		hashInt(h, d.Beam)
		hashFloat(h, d.Power)
		hashFloat(h, d.Threshold)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func weightsDigest(w *Weights) string {
	h := sha256.New()
	hashInt(h, len(w.Easy))
	for _, m := range w.Easy {
		hashMatrix(h, m)
	}
	hashInt(h, len(w.Hard))
	for _, seg := range w.Hard {
		hashInt(h, len(seg))
		for _, m := range seg {
			hashMatrix(h, m)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// goldenLines runs every case through the serial processor and returns
// one "case cpi detections-digest weights-digest" line per CPI.
func goldenLines(t *testing.T) []string {
	var lines []string
	for _, c := range goldenCases(t) {
		pr := NewProcessor(c.scene)
		for i := 0; i < goldenCPIs; i++ {
			res := pr.Process(c.cpi(i))
			lines = append(lines, fmt.Sprintf("%s %d %s %s", c.name, i,
				detectionsDigest(res.Detections), weightsDigest(pr.NextWeights())))
		}
	}
	return lines
}

func readGolden(t *testing.T) []string {
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if l := strings.TrimSpace(sc.Text()); l != "" && !strings.HasPrefix(l, "#") {
			lines = append(lines, l)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// TestGoldenDigests pins the serial chain bit for bit: detections and
// trained weights of the default scene at Small and Medium and of the
// seven catalog scenarios at Small, six CPIs each, must hash to the
// digests in testdata/golden_digests.txt. The pipeline is checked against
// stap.Processor elsewhere; since both share these kernels, this is what
// catches a rounding change in the kernels themselves.
func TestGoldenDigests(t *testing.T) {
	want := readGolden(t)
	got := goldenLines(t)
	if len(got) != len(want) {
		t.Fatalf("%d digest lines, golden has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("digest mismatch:\n got  %s\n want %s", got[i], want[i])
		}
	}
}
