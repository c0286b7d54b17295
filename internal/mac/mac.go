// Package mac is the cluster's one signature: an HMAC-SHA256 under the
// shared cluster secret. The dist manifest and peer hellos sign their
// bytes with Sum; the plan and SLO files are JSON documents that carry
// their MAC in a field of their own, signed and checked by Sign and
// Verify over the document's JSON with that field nil.
package mac

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
)

// Sum is the HMAC-SHA256 of b under secret.
func Sum(secret, b []byte) []byte {
	h := hmac.New(sha256.New, secret)
	h.Write(b)
	return h.Sum(nil)
}

// Valid reports, in constant time, whether sig is b's MAC under secret.
func Valid(secret, b, sig []byte) bool { return hmac.Equal(Sum(secret, b), sig) }

// signingBytes is doc's JSON with its signature field, which sig
// addresses, nil: what the MAC covers.
func signingBytes[T any](doc *T, sig func(*T) *[]byte) ([]byte, error) {
	c := *doc
	*sig(&c) = nil
	return json.Marshal(&c)
}

// Sign computes doc's MAC under secret and stores it in the field sig
// addresses.
func Sign[T any](doc *T, sig func(*T) *[]byte, secret []byte) error {
	b, err := signingBytes(doc, sig)
	if err != nil {
		return err
	}
	*sig(doc) = Sum(secret, b)
	return nil
}

// Verify checks the MAC in the field sig addresses against doc under
// secret.
func Verify[T any](doc *T, sig func(*T) *[]byte, secret []byte) bool {
	b, err := signingBytes(doc, sig)
	return err == nil && Valid(secret, b, *sig(doc))
}

// WriteFile signs doc under secret and writes it as indented JSON.
func WriteFile[T any](path string, doc *T, sig func(*T) *[]byte, secret []byte) error {
	if err := Sign(doc, sig, secret); err != nil {
		return err
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ReadFile loads a JSON document without verifying it; a parse error
// names the document's package, pkg. Verify it before trusting it.
func ReadFile[T any](path, pkg string) (*T, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	doc := new(T)
	if err := json.Unmarshal(b, doc); err != nil {
		return nil, fmt.Errorf("%s: parse %s: %w", pkg, path, err)
	}
	return doc, nil
}
