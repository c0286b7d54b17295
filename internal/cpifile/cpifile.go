// Package cpifile defines the gob encodings for CPI data: the on-disk
// format for recorded CPI streams (the stand-in for the RTMCARM flight
// tapes). cmd/stapgen writes recording files; cmd/stappipe -replay and
// library users feed them back through the pipeline. Framed network
// exchange goes through internal/wire, the shared length-prefixed codec.
//
// Decoding is hardened against corrupt or truncated input: it returns a
// descriptive error, never panics, and a decoded cube whose sample count
// does not match its declared shape is refused.
package cpifile

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"pstap/internal/cube"
	"pstap/internal/radar"
)

// File is a recorded CPI stream plus the scene ground truth needed to
// process and score it.
type File struct {
	Params  radar.Params
	Targets []radar.Target
	Seed    int64
	CPIs    []*cube.Cube
}

// Scene reconstructs a radar.Scene consistent with the recording (same
// parameters, targets and seed, default clutter/noise description). The
// returned scene's GenerateCPI reproduces the recorded cubes bit-exactly
// when the file was produced by stapgen with default clutter settings;
// for processing recorded data prefer Replay.
func (f *File) Scene() *radar.Scene {
	sc := radar.DefaultScene(f.Params)
	sc.Targets = f.Targets
	sc.Seed = f.Seed
	return sc
}

// Replay returns a source function serving the recorded cubes by index,
// suitable for pipeline.Config.RawSource.
func (f *File) Replay() func(int) *cube.Cube {
	return func(i int) *cube.Cube {
		if i < 0 || i >= len(f.CPIs) {
			panic(fmt.Sprintf("cpifile: CPI %d of %d", i, len(f.CPIs)))
		}
		return f.CPIs[i]
	}
}

// Validate checks internal consistency.
func (f *File) Validate() error {
	if err := f.Params.Validate(); err != nil {
		return err
	}
	if err := f.Params.CheckCPIs(f.CPIs); err != nil {
		return fmt.Errorf("cpifile: %w", err)
	}
	return nil
}

// Write encodes the file to w.
func (f *File) Write(w io.Writer) error {
	return gob.NewEncoder(w).Encode(f)
}

// Read decodes a file from r and validates it. A truncated or corrupt
// stream yields a descriptive error, never a panic.
func Read(r io.Reader) (f *File, err error) {
	defer guard(&err, "decode recording")
	f = &File{}
	if derr := gob.NewDecoder(r).Decode(f); derr != nil {
		return nil, fmt.Errorf("cpifile: decode recording: %w", derr)
	}
	if verr := f.Validate(); verr != nil {
		return nil, verr
	}
	return f, nil
}

// guard converts a decoding panic (gob on adversarial bytes) into an
// error, so no corrupt input can crash a caller.
func guard(err *error, what string) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("cpifile: %s: malformed input: %v", what, r)
	}
}

// Save writes the file to path.
func (f *File) Save(path string) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	defer out.Close()
	if err := f.Write(out); err != nil {
		return err
	}
	return out.Sync()
}

// Load reads the file at path.
func Load(path string) (*File, error) {
	in, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer in.Close()
	return Read(in)
}
