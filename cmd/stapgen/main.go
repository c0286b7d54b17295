// Command stapgen synthesizes CPI data cubes and writes them, along with
// the scene's ground truth, to a gob file — a stand-in for the RTMCARM
// recorded data a downstream user would replay through the pipeline.
//
// Usage:
//
//	stapgen -o cpis.gob -cpis 25 -size small
//	stapgen -o cpis.gob -targets "128:0.0:0.3:25,300:0.05:0.01:40"
//	stapgen -o cpis.gob -scenario barrage-jammer
//	stapgen -list
//
// Targets are range:azimuth:doppler:power quadruples. With -scenario the
// stream comes from the internal/scenario catalog and a machine-readable
// ground-truth sidecar (<out>.truth.json) is written next to the gob.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"pstap/internal/cpifile"
	"pstap/internal/radar"
	"pstap/internal/scenario"
)

var (
	flagOut      = flag.String("o", "cpis.gob", "output file")
	flagCPIs     = flag.Int("cpis", 25, "number of CPIs (ignored with -scenario)")
	flagSize     = flag.String("size", "small", "problem size: small | medium | paper")
	flagSeed     = flag.Int64("seed", 1, "scene seed")
	flagTargets  = flag.String("targets", "", "range:az:doppler:power quadruples, comma separated")
	flagScenario = flag.String("scenario", "", "generate a catalog scenario (see -list) with a truth sidecar")
	flagList     = flag.Bool("list", false, "list catalog scenarios and exit")
)

func main() {
	flag.Parse()
	if *flagList {
		for _, sc := range scenario.Catalog() {
			fmt.Printf("%-16s %2d CPIs  %s\n", sc.Name, sc.NumCPIs, sc.Description)
		}
		return
	}
	p, err := radar.ParamsFor(*flagSize)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *flagScenario != "" {
		if *flagTargets != "" {
			fmt.Fprintln(os.Stderr, "-scenario and -targets are mutually exclusive")
			os.Exit(2)
		}
		if err := generateScenario(p, *flagScenario); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	sc := radar.DefaultScene(p)
	sc.Seed = *flagSeed
	if *flagTargets != "" {
		targets, err := parseTargets(p, *flagTargets)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		sc.Targets = targets
	}
	if err := sc.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "scene:", err)
		os.Exit(1)
	}
	file := cpifile.File{Params: p, Targets: sc.Targets, Seed: sc.Seed}
	for i := 0; i < *flagCPIs; i++ {
		file.CPIs = append(file.CPIs, sc.GenerateCPI(i))
	}
	if err := file.Save(*flagOut); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	st, err := os.Stat(*flagOut)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %d CPIs (%s, %d targets) to %s (%d bytes)\n",
		len(file.CPIs), *flagSize, len(file.Targets), *flagOut, st.Size())
}

// parseTargets parses and validates the -targets quadruples, reporting
// which field of which quadruple is broken instead of generating a bad
// scene.
func parseTargets(p radar.Params, spec string) ([]radar.Target, error) {
	var out []radar.Target
	for i, one := range strings.Split(spec, ",") {
		parts := strings.Split(one, ":")
		if len(parts) != 4 {
			return nil, fmt.Errorf("target %d %q: want range:az:doppler:power", i+1, one)
		}
		r, err := strconv.Atoi(parts[0])
		if err != nil {
			return nil, fmt.Errorf("target %d: range %q: %v", i+1, parts[0], err)
		}
		if r < 0 || r >= p.K {
			return nil, fmt.Errorf("target %d: range cell %d outside the cube [0, %d)", i+1, r, p.K)
		}
		az, err := strconv.ParseFloat(parts[1], 64)
		if err != nil {
			return nil, fmt.Errorf("target %d: azimuth %q: %v", i+1, parts[1], err)
		}
		fd, err := strconv.ParseFloat(parts[2], 64)
		if err != nil {
			return nil, fmt.Errorf("target %d: doppler %q: %v", i+1, parts[2], err)
		}
		if fd <= -0.5 || fd >= 0.5 {
			return nil, fmt.Errorf("target %d: normalized doppler %g outside (-0.5, 0.5)", i+1, fd)
		}
		pw, err := strconv.ParseFloat(parts[3], 64)
		if err != nil {
			return nil, fmt.Errorf("target %d: power %q: %v", i+1, parts[3], err)
		}
		if pw <= 0 {
			return nil, fmt.Errorf("target %d: power %g must be positive", i+1, pw)
		}
		out = append(out, radar.Target{Range: r, Azimuth: az, Doppler: fd, Power: pw})
	}
	return out, nil
}

// generateScenario writes a catalog scenario's CPI stream plus its
// machine-readable ground-truth sidecar (<out>.truth.json).
func generateScenario(p radar.Params, name string) error {
	sc, err := scenario.Lookup(name)
	if err != nil {
		return err
	}
	in, err := sc.Instantiate(p, *flagSeed)
	if err != nil {
		return err
	}
	file := cpifile.File{Params: p, Targets: in.Base.Targets, Seed: *flagSeed}
	for i := 0; i < in.NumCPIs(); i++ {
		file.CPIs = append(file.CPIs, in.CPI(i))
	}
	if err := file.Save(*flagOut); err != nil {
		return err
	}
	truth := scenario.TruthFile{
		Scenario:    sc.Name,
		Description: sc.Description,
		Size:        *flagSize,
		Seed:        *flagSeed,
		NumCPIs:     sc.NumCPIs,
		ScoreFrom:   sc.ScoreFrom,
		Window:      sc.Window,
		Thresholds:  sc.Thresholds,
		Truth:       in.AllTruth(),
	}
	sidecar := *flagOut + ".truth.json"
	blob, err := json.MarshalIndent(&truth, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(sidecar, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	st, err := os.Stat(*flagOut)
	if err != nil {
		return err
	}
	fmt.Printf("wrote scenario %s: %d CPIs (%s) to %s (%d bytes), truth to %s\n",
		sc.Name, in.NumCPIs(), *flagSize, *flagOut, st.Size(), sidecar)
	return nil
}
