package linalg

import (
	"math/rand"
	"slices"
	"testing"
)

// sameBits reports whether two matrices are identical element for element
// (== on complex128 compares the bits of finite values).
func sameBits(a, b *Matrix) bool {
	return a.Rows == b.Rows && a.Cols == b.Cols && slices.Equal(a.Data, b.Data)
}

// TestWorkspaceFormsMatchWrappers runs one workspace through factorizations
// of changing shapes — growing, shrinking, a cold-start update, a factor
// updated in place — and requires each to equal the allocating wrapper's
// result exactly: a reused workspace must carry nothing from one call to
// the next.
func TestWorkspaceFormsMatchWrappers(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var w Workspace
	for _, dims := range [][2]int{{20, 8}, {50, 16}, {9, 9}, {30, 4}, {50, 16}} {
		a := randMatrix(rng, dims[0], dims[1])
		want, err := QRFactor(a)
		if err != nil {
			t.Fatal(err)
		}
		var got QR
		if err := QRFactorInto(&w, &got, a); err != nil {
			t.Fatal(err)
		}
		if !sameBits(got.Q, want.Q) || !sameBits(got.R, want.R) {
			t.Fatalf("QRFactorInto %v differs from QRFactor", dims)
		}
		wantR, _ := RFactor(a)
		var gotR Matrix
		if err := RFactorInto(&w, &gotR, a); err != nil || !sameBits(&gotR, wantR) {
			t.Fatalf("RFactorInto %v differs from RFactor (%v)", dims, err)
		}
	}
	n := 8
	var r Matrix // updated in place: dst aliases rOld
	var rOld *Matrix
	for i, rows := range []int{3, 12, 0, 9} {
		blk := randMatrix(rng, rows, n)
		want, err := UpdateR(rOld, 0.6, blk)
		if err != nil {
			t.Fatal(err)
		}
		if err := UpdateRInto(&w, &r, rOld, 0.6, blk); err != nil {
			t.Fatal(err)
		}
		if !sameBits(&r, want) {
			t.Fatalf("update %d: UpdateRInto differs from UpdateR", i)
		}
		rOld = &r
	}
	b := randVector(rng, n)
	want, err := BackSubstitute(&r, b)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]complex128, n)
	if err := BackSubstituteInto(x, &r, b); err != nil || !slices.Equal(x, want) {
		t.Fatalf("BackSubstituteInto differs from BackSubstitute (%v)", err)
	}
}

// TestWorkspaceFormsAllocateNothing pins the zero-allocation contract of
// the workspace forms once the workspace and the destinations have seen
// the problem's shape. The hard task's stacks at Small and Medium size
// ([λR; X] for the update, [R; κI] for the damped solve) and the easy
// task's [train; κI] share one workspace, so its reflector store,
// column products and working stack are reused across every shape.
func TestWorkspaceFormsAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under -race are the race runtime's")
	}
	rng := rand.New(rand.NewSource(22))
	var w Workspace
	a := randMatrix(rng, 40, 16)
	blk := randMatrix(rng, 10, 16)
	b := randVector(rng, 16)
	var qr QR
	var r, upd Matrix
	x := make([]complex128, 16)
	type kernel struct {
		name string
		f    func()
	}
	cases := []kernel{
		{"QRFactorInto", func() { _ = QRFactorInto(&w, &qr, a) }},
		{"RFactorInto", func() { _ = RFactorInto(&w, &r, a) }},
		{"UpdateRInto", func() { _ = UpdateRInto(&w, &upd, &r, 0.6, blk) }},
		{"BackSubstituteInto", func() { _ = BackSubstituteInto(x, &r, b) }},
		{"VStackInto", func() { VStackInto(&upd, a, blk) }},
		{"HInto", func() { HInto(&upd, a) }},
	}
	for _, s := range []struct {
		name string
		n, k int
	}{{"Small", 8, 10}, {"Medium", 16, 40}} {
		rOld, fresh := hardStack(rng, s.n, s.k)
		train := randMatrix(rng, 3*s.k, s.n/2)
		var hr Matrix
		var hqr, eqr QR
		cases = append(cases,
			kernel{s.name + " [λR; X] UpdateRInto", func() { _ = UpdateRInto(&w, &hr, rOld, 0.6, fresh) }},
			kernel{s.name + " [R; κI] DampedQRInto", func() { _ = DampedQRInto(&w, &hqr, rOld, 0.5, true) }},
			kernel{s.name + " [train; κI] DampedQRInto", func() { _ = DampedQRInto(&w, &eqr, train, 0.5, false) }})
	}
	for _, c := range cases {
		c.f() // size the workspace and destinations
	}
	for _, c := range cases {
		if allocs := testing.AllocsPerRun(20, c.f); allocs != 0 {
			t.Errorf("%s allocates %g times per call once warm", c.name, allocs)
		}
	}
}
