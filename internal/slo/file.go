package slo

import (
	"fmt"

	"pstap/internal/mac"
)

// File is the signed SLO document loaded via `stapd -slofile`. Like the
// placement manifest and the plan file, it carries an HMAC-SHA256 under
// the cluster secret so the file that decides when a cluster pages (and
// optionally when it replans itself) has the same provenance proof as the
// files that decide where it runs.
type File struct {
	SLOs []Spec `json:"slos"`
	Sig  []byte `json:"sig,omitempty"`
}

// Validate checks every spec and rejects duplicate names.
func (f *File) Validate() error {
	if len(f.SLOs) == 0 {
		return fmt.Errorf("slo: file declares no SLOs")
	}
	seen := make(map[string]bool, len(f.SLOs))
	for _, s := range f.SLOs {
		if err := s.Validate(); err != nil {
			return err
		}
		if seen[s.Name] {
			return fmt.Errorf("slo: duplicate name %q", s.Name)
		}
		seen[s.Name] = true
	}
	return nil
}

// fileSig addresses an SLO file's signature field.
func fileSig(f *File) *[]byte { return &f.Sig }

// Sign computes and stores the file's HMAC under the cluster secret.
func (f *File) Sign(secret []byte) error { return mac.Sign(f, fileSig, secret) }

// Verify checks the file's signature under the cluster secret.
func (f *File) Verify(secret []byte) bool { return mac.Verify(f, fileSig, secret) }

// WriteFile signs the document under secret and writes indented JSON.
func WriteFile(path string, f *File, secret []byte) error {
	return mac.WriteFile(path, f, fileSig, secret)
}

// ReadFile loads an SLO file without verifying it — call Verify with the
// cluster secret before trusting the contents.
func ReadFile(path string) (*File, error) { return mac.ReadFile[File](path, "slo") }
