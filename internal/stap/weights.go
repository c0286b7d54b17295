package stap

import (
	"fmt"
	"math"

	"pstap/internal/cube"
	"pstap/internal/linalg"
	"pstap/internal/radar"
)

// Weights holds the adaptive weight vectors computed for one CPI.
type Weights struct {
	// Easy[i] is a J x M matrix of beamforming weights (columns are beams)
	// for easy Doppler bin radar.Params.EasyBins()[i].
	Easy []*linalg.Matrix
	// Hard[s][i] is a 2J x M matrix for range segment s and hard Doppler
	// bin radar.Params.HardBins()[i].
	Hard [][]*linalg.Matrix
}

// SteeringWeights returns non-adaptive weights equal to the (staggered)
// steering vectors: the cold-start weights applied to the first CPI before
// any training data exists.
func SteeringWeights(p radar.Params, beamAz []float64) *Weights {
	if len(beamAz) != p.M {
		panic(fmt.Sprintf("stap: %d beam azimuths, want %d", len(beamAz), p.M))
	}
	w := &Weights{}
	easyBins := p.EasyBins()
	w.Easy = make([]*linalg.Matrix, len(easyBins))
	st := radar.SteeringMatrix(p.J, beamAz)
	for i := range easyBins {
		w.Easy[i] = st.Clone()
	}
	hardBins := p.HardBins()
	w.Hard = make([][]*linalg.Matrix, p.NumSegments())
	for s := range w.Hard {
		w.Hard[s] = make([]*linalg.Matrix, len(hardBins))
		for i, d := range hardBins {
			w.Hard[s][i] = staggeredSteering(p, beamAz, d)
		}
	}
	return w
}

// staggeredSteering returns the 2J x M matrix of unit-norm staggered
// steering vectors of hard bin d: its steering weights.
func staggeredSteering(p radar.Params, beamAz []float64, d int) *linalg.Matrix {
	m := linalg.NewMatrix(2*p.J, p.M)
	for b, az := range beamAz {
		sv := radar.StaggeredSteeringVector(p.J, az, d, p.Stagger, p.N)
		linalg.Normalize(sv)
		for r, v := range sv {
			m.Set(r, b, v)
		}
	}
	return m
}

// EasyWeightState accumulates the easy task's training history: per easy
// Doppler bin, the snapshot matrices drawn from the last EasyTrainingCPIs
// CPIs (the paper trains the weights for CPI i on data from the three
// preceding CPIs in the same azimuth direction). The state owns its
// history and solver memory, so once warm ObserveRows and ComputeInto
// allocate nothing.
type EasyWeightState struct {
	p    radar.Params
	bins []int // global easy Doppler bins this state owns
	// hist[age][binIdx]: training rows (EasySamplesPerCPI x J) from the
	// CPI `age+1` steps in the past; hist[0] is the most recent. The rows
	// are copies held in the state's own slots: hist is a prefix of a
	// backing array of EasyTrainingCPIs slots that ObserveRows rotates, the
	// oldest slot taking the newest rows once the history is full.
	hist [][]*linalg.Matrix

	steer     *linalg.Matrix   // J x M steering matrix: the no-history weights
	steerCols [][]complex128   // steer's columns, one per beam
	train     linalg.Matrix    // the stacked history of one bin
	blocks    []*linalg.Matrix // hist's blocks of one bin, newest first
	sv        solver           // the constrained least-squares solve
	ws        Workspace        // Observe's row extraction
	observed  []*linalg.Matrix // Observe's extracted rows
}

// NewEasyWeightState creates empty training history covering all easy
// bins.
func NewEasyWeightState(p radar.Params, beamAz []float64) *EasyWeightState {
	return NewEasyWeightStateForBins(p, beamAz, p.EasyBins())
}

// NewEasyWeightStateForBins creates state restricted to a subset of easy
// Doppler bins — the per-processor state of the parallel easy weight task,
// which partitions the work along the Doppler dimension.
func NewEasyWeightStateForBins(p radar.Params, beamAz []float64, bins []int) *EasyWeightState {
	s := &EasyWeightState{p: p, bins: bins}
	slots := make([][]*linalg.Matrix, p.EasyTrainingCPIs)
	for age := range slots {
		slots[age] = newMatrices(len(bins))
	}
	s.hist = slots[:0]
	s.blocks = make([]*linalg.Matrix, p.EasyTrainingCPIs)
	s.steer = radar.SteeringMatrix(p.J, beamAz)
	s.steerCols = make([][]complex128, p.M)
	for b := range s.steerCols {
		col := make([]complex128, p.J)
		for j := range col {
			col[j] = s.steer.At(j, b)
		}
		s.steerCols[b] = col
	}
	s.observed = newMatrices(len(bins))
	return s
}

// newMatrices returns n empty matrices, each sized by its first use.
func newMatrices(n int) []*linalg.Matrix {
	ms := make([]*linalg.Matrix, n)
	for i := range ms {
		ms[i] = new(linalg.Matrix)
	}
	return ms
}

// Bins returns the global easy Doppler bins this state owns.
func (s *EasyWeightState) Bins() []int { return s.bins }

// EasyTrainingRanges returns the range cells training snapshots are drawn
// from: EasySamplesPerCPI cells evenly spaced over the first third of the
// range extent.
func EasyTrainingRanges(p radar.Params) []int {
	return cube.EvenlySpaced(p.K/3, p.EasySamplesPerCPI)
}

// ExtractEasyRows builds the conjugated training snapshot matrix for each
// requested easy bin from a staggered cube slab covering global range
// cells [slabBlk.Lo, slabBlk.Hi). Only the training ranges falling inside
// the slab contribute; rows appear in ascending global range order. This
// is the "data collection" a Doppler-task processor performs before
// sending to the weight tasks. Bins with no training cell in the slab get
// 0-row matrices. It is Workspace.ExtractEasyRows into fresh matrices.
func ExtractEasyRows(p radar.Params, slab *cube.Cube, slabBlk cube.Block, bins []int) []*linalg.Matrix {
	out := newMatrices(len(bins))
	new(Workspace).ExtractEasyRows(out, p, slab, slabBlk, bins)
	return out
}

// ExtractEasyRows is the package-level ExtractEasyRows writing bin i's
// rows into dst[i] (reshaped).
func (w *Workspace) ExtractEasyRows(dst []*linalg.Matrix, p radar.Params, slab *cube.Cube, slabBlk cube.Block, bins []int) {
	w.cells = inBlock(cube.AppendEvenlySpaced(w.cells[:0], p.K/3, p.EasySamplesPerCPI), 0, slabBlk)
	for i, d := range bins {
		extractRows(dst[i], slab, slabBlk, w.cells, d, p.J)
	}
}

// inBlock shifts the cells by off and keeps, in place, those inside blk.
func inBlock(cells []int, off int, blk cube.Block) []int {
	out := cells[:0]
	for _, r := range cells {
		if r += off; blk.Contains(r) {
			out = append(out, r)
		}
	}
	return out
}

// extractRows writes into m one conjugated snapshot row of the first
// `channels` channels at Doppler bin d per training cell (global range)
// of a slab covering slabBlk.
func extractRows(m *linalg.Matrix, slab *cube.Cube, slabBlk cube.Block, cells []int, d, channels int) {
	m.Reshape(len(cells), channels)
	for row, r := range cells {
		for j := 0; j < channels; j++ {
			// Rows are conjugated snapshots so that minimizing ||S w||
			// minimizes the beamformer output |w^H x| on the training
			// data (the beamformer applies the Hermitian of the weight).
			m.Set(row, j, conj(slab.At(r-slabBlk.Lo, j, d)))
		}
	}
}

// Observe folds the Doppler-filtered CPI (staggered order, full K range
// extent) into the training history. Only the first J channels (the
// unstaggered Doppler spectrum, "the first half of the staggered CPI
// data") are used by the easy task.
func (s *EasyWeightState) Observe(doppler *cube.Cube) {
	if doppler.Axes != radar.StaggeredOrder {
		panic(fmt.Sprintf("stap: easy Observe wants %v, got %v", radar.StaggeredOrder, doppler.Axes))
	}
	s.ws.ExtractEasyRows(s.observed, s.p, doppler, cube.Block{Lo: 0, Hi: s.p.K}, s.bins)
	s.ObserveRows(s.observed)
}

// ObserveRows folds pre-collected training rows into the history; rows[i]
// corresponds to Bins()[i]. In the parallel pipeline the rows arrive from
// the Doppler task processors and are stacked in rank order (equal to
// ascending range order), which leaves the least squares solution
// unchanged. The rows are copied: the caller keeps ownership of rows.
func (s *EasyWeightState) ObserveRows(rows []*linalg.Matrix) {
	if len(rows) != len(s.bins) {
		panic(fmt.Sprintf("stap: ObserveRows got %d row sets for %d bins", len(rows), len(s.bins)))
	}
	n := len(s.hist)
	if n < cap(s.hist) {
		s.hist = s.hist[:n+1]
	} else {
		n--
	}
	slot := s.hist[n] // a free slot, or the oldest rows when full
	copy(s.hist[1:n+1], s.hist[:n])
	s.hist[0] = slot
	for i, m := range rows {
		slot[i].CopyFrom(m)
	}
}

// Reset drops the training history — a job boundary — keeping the
// state's memory for the next job.
func (s *EasyWeightState) Reset() { s.hist = s.hist[:0] }

// Ready reports whether any training data has been observed.
func (s *EasyWeightState) Ready() bool { return len(s.hist) > 0 }

// Compute solves the beam-constrained least squares problem for every
// owned easy Doppler bin and returns the J x M weight matrices (indexed
// like Bins()). Falls back to pure steering weights for bins with no
// history. It is ComputeInto fresh matrices.
func (s *EasyWeightState) Compute() []*linalg.Matrix {
	out := newMatrices(len(s.bins))
	s.ComputeInto(out)
	return out
}

// ComputeInto is Compute writing bin i's weights into out[i] (reshaped).
func (s *EasyWeightState) ComputeInto(out []*linalg.Matrix) {
	for i := range s.bins {
		if len(s.hist) == 0 {
			out[i].CopyFrom(s.steer)
			continue
		}
		for age, snap := range s.hist {
			s.blocks[age] = snap[i]
		}
		train := linalg.VStackInto(&s.train, s.blocks[:len(s.hist)]...)
		if err := s.sv.constrained(out[i], train, s.steerCols, s.p.BeamConstraintWt); err != nil {
			// Degenerate training data: keep the non-adaptive weights.
			out[i].CopyFrom(s.steer)
		}
	}
}

// solver is the working memory of the constrained least-squares solve
// shared by both weight tasks, sized by the first solve and reused by
// every later one.
type solver struct {
	lw     linalg.Workspace // holds the stacked [data; k·I]
	qr     linalg.QR
	qhb, x []complex128
}

// constrainedWeights solves the Figure 13 problem: minimize ||S w||^2 +
// k_eff^2 ||w - ws||^2 for each steering vector, sharing one QR
// factorization across all beams (the paper's multi-beam saving: the data
// matrix is independent of the pointing angle). k_eff scales the raw
// constraint weight by the RMS magnitude of the training data (the MATLAB
// `avg * diagWts`). Each weight column is normalized to unit length.
func constrainedWeights(train *linalg.Matrix, steer [][]complex128, constraintWt float64) (*linalg.Matrix, error) {
	out := new(linalg.Matrix)
	if err := new(solver).constrained(out, train, steer, constraintWt); err != nil {
		return nil, err
	}
	return out, nil
}

// constrained is constrainedWeights writing the weights into dst.
func (sv *solver) constrained(dst, train *linalg.Matrix, steer [][]complex128, constraintWt float64) error {
	rms := linalg.FrobNorm(train) / math.Sqrt(float64(train.Rows*train.Cols))
	if rms == 0 {
		return fmt.Errorf("stap: zero training data")
	}
	return sv.solve(dst, train, false, steer, complex(constraintWt*rms, 0))
}

// constrainedWeightsFromR is constrainedWeights with the data block already
// reduced to its triangular factor (the hard task's block update: stack
// [R; k_eff I] and solve). kEff is an absolute scale here.
func constrainedWeightsFromR(r *linalg.Matrix, steer [][]complex128, kEff float64) (*linalg.Matrix, error) {
	out := new(linalg.Matrix)
	if err := new(solver).fromR(out, r, steer, kEff); err != nil {
		return nil, err
	}
	return out, nil
}

// fromR is constrainedWeightsFromR writing the weights into dst.
func (sv *solver) fromR(dst, r *linalg.Matrix, steer [][]complex128, kEff float64) error {
	if kEff <= 0 {
		return fmt.Errorf("stap: non-positive constraint scale")
	}
	return sv.solve(dst, r, true, steer, complex(kEff, 0))
}

// solve factors [data; k I] once (data triangular when upper is set) and,
// per steering vector ws, solves the least squares problem whose
// right-hand side is k ws on the constraint rows and zero on the data
// rows, writing the unit-norm solution as column b of dst (nch x
// len(steer)).
func (sv *solver) solve(dst, data *linalg.Matrix, upper bool, steer [][]complex128, k complex128) error {
	nch := data.Cols
	if err := linalg.DampedQRInto(&sv.lw, &sv.qr, data, k, upper); err != nil {
		return err
	}
	if len(sv.x) != nch {
		sv.qhb, sv.x = make([]complex128, nch), make([]complex128, nch)
	}
	out := dst.Reshape(nch, len(steer))
	for b, ws := range steer {
		if len(ws) != nch {
			return fmt.Errorf("stap: steering length %d, want %d", len(ws), nch)
		}
		// rhs is zero on the data rows, so Q^H b only touches the constraint
		// block: (Q^H b)[c] = sum_j conj(Q[data.Rows+j, c]) * k * ws[j].
		// Constraint row j joins the reflectors' spans at reflector j, so
		// its entries in columns c < j are exact zeros and the sum stops at
		// the diagonal; the terms it skips would add signed zeros to a sum
		// that is never -0, leaving its bits as they are. Walking Q by row
		// adds each column's terms in the same j order.
		clear(sv.qhb)
		for j := 0; j < nch; j++ {
			row, kw := sv.qr.Q.Row(data.Rows + j)[j:], ws[j]
			sum := sv.qhb[j:]
			for c, q := range row {
				sum[c] += conj(q) * k * kw
			}
		}
		if err := linalg.BackSubstituteInto(sv.x, sv.qr.R, sv.qhb); err != nil {
			return err
		}
		linalg.Normalize(sv.x)
		for j, x := range sv.x {
			out.Data[j*out.Cols+b] = x
		}
	}
	return nil
}

func conj(v complex128) complex128 { return complex(real(v), -imag(v)) }

// HardWeightState carries the recursive QR state of the hard task: one
// triangular factor per (range segment, hard Doppler bin), exponentially
// forgotten across CPIs. The state owns its factors (double-buffered: an
// update reads one buffer and writes the other), steering vectors and
// solver memory, so once warm ObserveRows and ComputeInto allocate
// nothing.
type HardWeightState struct {
	p    radar.Params
	bins []int // global hard Doppler bins this state owns
	// r[s][binIdx] is the 2J x 2J triangular factor, nil before the first
	// observation; it points into fac[s][binIdx].
	r   [][]*linalg.Matrix
	fac [][][2]linalg.Matrix
	// rms[s][binIdx] tracks the running RMS element magnitude of observed
	// training data for constraint scaling.
	rms [][]float64

	steer    [][][]complex128 // [binIdx][beam]: staggered steering vector
	fallback []*linalg.Matrix // [binIdx]: the bin's steering weights
	lw       linalg.Workspace // the recursive update
	sv       solver           // the constrained solve
	ws       Workspace        // Observe's row extraction
	observed [][]*linalg.Matrix
}

// NewHardWeightState creates empty recursive state covering all hard bins.
func NewHardWeightState(p radar.Params, beamAz []float64) *HardWeightState {
	return NewHardWeightStateForBins(p, beamAz, p.HardBins())
}

// NewHardWeightStateForBins creates state restricted to a subset of hard
// Doppler bins — the per-processor state of the parallel hard weight task.
func NewHardWeightStateForBins(p radar.Params, beamAz []float64, bins []int) *HardWeightState {
	s := &HardWeightState{p: p, bins: bins}
	s.r = make([][]*linalg.Matrix, p.NumSegments())
	s.fac = make([][][2]linalg.Matrix, p.NumSegments())
	s.rms = make([][]float64, p.NumSegments())
	s.observed = make([][]*linalg.Matrix, p.NumSegments())
	for seg := range s.r {
		s.r[seg] = make([]*linalg.Matrix, len(bins))
		s.fac[seg] = make([][2]linalg.Matrix, len(bins))
		s.rms[seg] = make([]float64, len(bins))
		s.observed[seg] = newMatrices(len(bins))
	}
	s.steer = make([][][]complex128, len(bins))
	s.fallback = make([]*linalg.Matrix, len(bins))
	for i, d := range bins {
		s.steer[i] = make([][]complex128, len(beamAz))
		for b, az := range beamAz {
			s.steer[i][b] = radar.StaggeredSteeringVector(p.J, az, d, p.Stagger, p.N)
		}
		s.fallback[i] = staggeredSteering(p, beamAz, d)
	}
	return s
}

// Bins returns the global hard Doppler bins this state owns.
func (s *HardWeightState) Bins() []int { return s.bins }

// HardTrainingRanges returns the cells sampled within segment s:
// HardSamplesPerSegment cells evenly spaced across the segment.
func HardTrainingRanges(p radar.Params, seg int) []int {
	lo, hi := p.Segment(seg)
	idx := cube.EvenlySpaced(hi-lo, p.HardSamplesPerSegment)
	for i := range idx {
		idx[i] += lo
	}
	return idx
}

// ExtractHardRows builds the conjugated 2J-channel training snapshots per
// (segment, requested bin) from a staggered slab covering global ranges
// [slabBlk.Lo, slabBlk.Hi). Result is indexed [segment][binIdx]; segments
// whose training cells all fall outside the slab yield 0-row matrices. It
// is Workspace.ExtractHardRows into fresh matrices.
func ExtractHardRows(p radar.Params, slab *cube.Cube, slabBlk cube.Block, bins []int) [][]*linalg.Matrix {
	out := make([][]*linalg.Matrix, p.NumSegments())
	for seg := range out {
		out[seg] = newMatrices(len(bins))
	}
	new(Workspace).ExtractHardRows(out, p, slab, slabBlk, bins)
	return out
}

// ExtractHardRows is the package-level ExtractHardRows writing (segment,
// bin i)'s rows into dst[segment][i] (reshaped).
func (w *Workspace) ExtractHardRows(dst [][]*linalg.Matrix, p radar.Params, slab *cube.Cube, slabBlk cube.Block, bins []int) {
	for seg := 0; seg < p.NumSegments(); seg++ {
		lo, hi := p.Segment(seg)
		w.cells = inBlock(cube.AppendEvenlySpaced(w.cells[:0], hi-lo, p.HardSamplesPerSegment), lo, slabBlk)
		for i, d := range bins {
			// Conjugated snapshots; see ExtractEasyRows.
			extractRows(dst[seg][i], slab, slabBlk, w.cells, d, 2*p.J)
		}
	}
}

// Observe performs the recursive QR update with the forgetting factor for
// every (segment, owned hard bin) pair, drawing fresh 2J-channel snapshots
// from the staggered CPI (hard bins use the full staggered data, all 2J
// channels).
func (s *HardWeightState) Observe(doppler *cube.Cube) {
	if doppler.Axes != radar.StaggeredOrder {
		panic(fmt.Sprintf("stap: hard Observe wants %v, got %v", radar.StaggeredOrder, doppler.Axes))
	}
	s.ws.ExtractHardRows(s.observed, s.p, doppler, cube.Block{Lo: 0, Hi: s.p.K}, s.bins)
	s.ObserveRows(s.observed)
}

// ObserveRows folds pre-collected training rows (indexed [segment][binIdx]
// like ExtractHardRows) into the recursive QR state. The state keeps
// nothing of rows.
func (s *HardWeightState) ObserveRows(rows [][]*linalg.Matrix) {
	p := s.p
	if len(rows) != p.NumSegments() {
		panic(fmt.Sprintf("stap: ObserveRows got %d segments, want %d", len(rows), p.NumSegments()))
	}
	for seg := 0; seg < p.NumSegments(); seg++ {
		if len(rows[seg]) != len(s.bins) {
			panic(fmt.Sprintf("stap: segment %d has %d row sets for %d bins", seg, len(rows[seg]), len(s.bins)))
		}
		for i := range s.bins {
			blk := rows[seg][i]
			cur, next := s.r[seg][i], &s.fac[seg][i][0]
			if cur == next {
				next = &s.fac[seg][i][1]
			}
			if err := linalg.UpdateRInto(&s.lw, next, cur, p.ForgettingFactor, blk); err != nil {
				continue // keep previous state on degenerate update
			}
			s.r[seg][i] = next
			if blk.Rows == 0 {
				continue
			}
			rms := linalg.FrobNorm(blk) / math.Sqrt(float64(blk.Rows*blk.Cols))
			if s.rms[seg][i] == 0 {
				s.rms[seg][i] = rms
			} else {
				f := p.ForgettingFactor
				s.rms[seg][i] = math.Sqrt(f*f*s.rms[seg][i]*s.rms[seg][i] + (1-f*f)*rms*rms)
			}
		}
	}
}

// Reset drops the recursive state — a job boundary — keeping the state's
// memory for the next job.
func (s *HardWeightState) Reset() {
	for seg := range s.r {
		clear(s.r[seg])
		clear(s.rms[seg])
	}
}

// Ready reports whether recursive state exists for all (segment, bin)
// pairs.
func (s *HardWeightState) Ready() bool {
	for seg := range s.r {
		for _, r := range s.r[seg] {
			if r == nil {
				return false
			}
		}
	}
	return len(s.r) > 0
}

// Compute solves the constrained problem against the current triangular
// factors and returns the per-(segment, owned bin) 2J x M weight matrices.
// Segments/bins with no state yet fall back to staggered steering weights.
// It is ComputeInto fresh matrices.
func (s *HardWeightState) Compute() [][]*linalg.Matrix {
	out := make([][]*linalg.Matrix, s.p.NumSegments())
	for seg := range out {
		out[seg] = newMatrices(len(s.bins))
	}
	s.ComputeInto(out)
	return out
}

// ComputeInto is Compute writing (segment, bin i)'s weights into
// out[segment][i] (reshaped).
func (s *HardWeightState) ComputeInto(out [][]*linalg.Matrix) {
	for seg := range s.r {
		for i, r := range s.r[seg] {
			// The data term is fully summarized by R: ||S w||^2 = ||R w||^2.
			if r == nil || s.sv.fromR(out[seg][i], r, s.steer[i], s.p.BeamConstraintWt*s.rms[seg][i]) != nil {
				out[seg][i].CopyFrom(s.fallback[i])
			}
		}
	}
}
