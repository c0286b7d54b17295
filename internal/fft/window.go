package fft

import (
	"fmt"
	"math"
)

// WindowKind selects a tapering window applied to pulse data before the
// Doppler FFT. The paper notes that the window choice trades clutter
// leakage across Doppler bins against clutter passband width; Hanning is
// the flight-experiment default (Appendix B).
type WindowKind int

const (
	// Rectangular applies no taper.
	Rectangular WindowKind = iota
	// Hanning is the raised-cosine window used by the RT-MCARM code.
	Hanning
	// Hamming is the classic 25/46 raised-cosine variant.
	Hamming
	// Blackman is the 3-term Blackman window.
	Blackman
)

// String returns the window name.
func (w WindowKind) String() string {
	switch w {
	case Rectangular:
		return "rectangular"
	case Hanning:
		return "hanning"
	case Hamming:
		return "hamming"
	case Blackman:
		return "blackman"
	}
	return fmt.Sprintf("WindowKind(%d)", int(w))
}

// Window returns the n coefficients of the selected window. The symmetric
// (MATLAB hanning(n)) convention is used: w[k] = 0.5(1-cos(2π(k+1)/(n+1)))
// for Hanning, so endpoints are nonzero for Hanning but the taper is
// symmetric. Hamming and Blackman use the periodic-symmetric convention
// w[k]=f(2πk/(n-1)).
func Window(kind WindowKind, n int) []float64 {
	if n <= 0 {
		return nil
	}
	w := make([]float64, n)
	switch kind {
	case Rectangular:
		for i := range w {
			w[i] = 1
		}
	case Hanning:
		for i := range w {
			w[i] = 0.5 * (1 - math.Cos(2*math.Pi*float64(i+1)/float64(n+1)))
		}
	case Hamming:
		if n == 1 {
			w[0] = 1
			break
		}
		for i := range w {
			w[i] = 0.54 - 0.46*math.Cos(2*math.Pi*float64(i)/float64(n-1))
		}
	case Blackman:
		if n == 1 {
			w[0] = 1
			break
		}
		for i := range w {
			x := 2 * math.Pi * float64(i) / float64(n-1)
			w[i] = 0.42 - 0.5*math.Cos(x) + 0.08*math.Cos(2*x)
		}
	default:
		panic(fmt.Sprintf("fft: unknown window kind %d", int(kind)))
	}
	return w
}
