package ising

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// DefaultSparseDensity is the density threshold of the CompactCoupler
// auto-pick: at or below it the CSR representation wins (it touches only
// the stored entries, ~12 bytes each, against the dense kernel's 8 bytes
// for every one of the n² slots), above it the dense kernel's branch-free
// streaming is faster despite the extra zeros. 0.25 is deliberately
// conservative — the CSR kernel typically breaks even well above it, but
// the auto-pick must never pessimize a problem that the dense engine
// already handles at full speed.
const DefaultSparseDensity = 0.25

// Triplet is one symmetric coupling entry (i, j, v) for the triplet
// constructor: J_ij = J_ji accumulate v.
type Triplet struct {
	I, J int
	V    float64
}

// Sparse is a symmetric coupling matrix in CSR (compressed sparse row)
// form: row i's entries live in col/val[rowPtr[i]:rowPtr[i+1]], column
// indices ascending. Both triangle halves are stored, so every row scan
// sees the full J row — the layout the decomposition COPs (bipartite,
// mostly-zero J) and sparse MaxCut instances want: a Field product walks
// nnz entries instead of n², and the matrix costs ~12·nnz bytes instead
// of 8·n².
//
// Field and FieldBatch accumulate each output in ascending-column order,
// skipping only slots that a Dense matrix would hold as exactly 0.0 —
// adding those zeros cannot move any IEEE partial sum for finite inputs
// (a running sum that starts at +0 never becomes -0), so both kernels are
// bit-identical to the Dense kernels on the materialized matrix. The
// differential tests pin this.
type Sparse struct {
	n      int
	rowPtr []int32
	col    []int32
	val    []float64
	frob   normCache
}

// NewSparse allocates an n-spin coupling with no stored entries.
func NewSparse(n int) *Sparse {
	if n <= 0 {
		panic(fmt.Sprintf("ising: invalid spin count %d", n))
	}
	s := &Sparse{n: n, rowPtr: make([]int32, n+1)}
	s.frob.invalidate() // the zero cache decodes as a valid 0.0 norm
	return s
}

// NewSparseFromDense builds the CSR form of a dense coupling, storing
// exactly the nonzero entries.
func NewSparseFromDense(d *Dense) *Sparse {
	n := d.n
	s := NewSparse(n)
	nnz := 0
	for _, v := range d.j {
		if v != 0 {
			nnz++
		}
	}
	s.col = make([]int32, 0, nnz)
	s.val = make([]float64, 0, nnz)
	for i := 0; i < n; i++ {
		row := d.j[i*n : i*n+n]
		for j, v := range row {
			if v != 0 {
				s.col = append(s.col, int32(j))
				s.val = append(s.val, v)
			}
		}
		s.rowPtr[i+1] = int32(len(s.col))
	}
	return s
}

// NewSparseFromTriplets builds a symmetric CSR coupling from (i, j, v)
// triplets. Each triplet contributes to both J_ij and J_ji; duplicate
// coordinates accumulate, left to right in input order, so the stored
// value is bit-identical to that running sum however the duplicates
// are spread or mirrored. Diagonal or out-of-range entries are an error.
// The build is O(len(ts) + n): two stable counting passes, by column and
// then by row, leave the entries row-major with duplicates adjacent and
// still in input order.
func NewSparseFromTriplets(n int, ts []Triplet) (*Sparse, error) {
	if n <= 0 {
		return nil, fmt.Errorf("ising: invalid spin count %d", n)
	}
	// Each triplet adds one entry to row (and column) I and one to J, so
	// the row and column counts coincide.
	start := make([]int32, n+1)
	for _, t := range ts {
		if t.I < 0 || t.I >= n || t.J < 0 || t.J >= n {
			return nil, fmt.Errorf("ising: triplet (%d,%d) out of range for n=%d", t.I, t.J, n)
		}
		if t.I == t.J {
			return nil, fmt.Errorf("ising: diagonal coupling J_%d%d must stay zero", t.I, t.J)
		}
		start[t.I+1]++
		start[t.J+1]++
	}
	for r := 0; r < n; r++ {
		start[r+1] += start[r]
	}
	type entry struct {
		row, col int32
		v        float64
	}
	byCol := make([]entry, 2*len(ts))
	next := slices.Clone(start[:n])
	for _, t := range ts {
		i, j := int32(t.I), int32(t.J)
		byCol[next[j]] = entry{i, j, t.V}
		next[j]++
		byCol[next[i]] = entry{j, i, t.V}
		next[i]++
	}
	col := make([]int32, len(byCol))
	val := make([]float64, len(byCol))
	copy(next, start[:n])
	for _, e := range byCol {
		col[next[e.row]] = e.col
		val[next[e.row]] = e.v
		next[e.row]++
	}
	// Merge the adjacent duplicates in place, row by row.
	s := NewSparse(n)
	w := int32(0)
	for r := 0; r < n; r++ {
		rowStart := w
		for k := start[r]; k < start[r+1]; k++ {
			if w > rowStart && col[w-1] == col[k] {
				val[w-1] += val[k]
				continue
			}
			col[w], val[w] = col[k], val[k]
			w++
		}
		s.rowPtr[r+1] = w
	}
	s.col, s.val = col[:w:w], val[:w:w]
	return s, nil
}

// CompactCoupler applies the density policy that picks every solve's
// coupler representation: CSR at or below DefaultSparseDensity, dense
// above it. A dense coupling that is sparse enough is converted to CSR,
// a CSR coupling that is too dense is materialized, and anything else
// (already in its right form, or another coupler kind such as
// Bipartite) is returned unchanged. Results are bit-identical either
// way; only the kernel cost changes.
func CompactCoupler(c Coupler) Coupler {
	switch c := c.(type) {
	case *Dense:
		if c.Density() <= DefaultSparseDensity {
			return NewSparseFromDense(c)
		}
	case *Sparse:
		if c.Density() > DefaultSparseDensity {
			return c.ToDense()
		}
	}
	return c
}

// N implements Coupler.
func (s *Sparse) N() int { return s.n }

// NNZ returns the number of stored entries (both triangle halves).
func (s *Sparse) NNZ() int { return len(s.col) }

// Density returns NNZ / n².
func (s *Sparse) Density() float64 {
	return float64(len(s.col)) / (float64(s.n) * float64(s.n))
}

// find locates (i, j) in row i: the entry index when present, otherwise
// the insertion point that keeps the row's columns ascending.
func (s *Sparse) find(i, j int) (int, bool) {
	lo, hi := int(s.rowPtr[i]), int(s.rowPtr[i+1])
	pos := lo + sort.Search(hi-lo, func(k int) bool { return s.col[lo+k] >= int32(j) })
	if pos < hi && s.col[pos] == int32(j) {
		return pos, true
	}
	return pos, false
}

// At implements Coupler via binary search within the row.
func (s *Sparse) At(i, j int) float64 {
	if pos, ok := s.find(i, j); ok {
		return s.val[pos]
	}
	return 0
}

// upsert writes v into (i, j), inserting a new structural entry when the
// slot is absent. Insertion splices the flat arrays — O(nnz) — which is
// fine for construction-time mutation; hot paths build via the
// constructors instead.
func (s *Sparse) upsert(i, j int, v float64, add bool) {
	pos, ok := s.find(i, j)
	if ok {
		if add {
			s.val[pos] += v
		} else {
			s.val[pos] = v
		}
		return
	}
	s.col = append(s.col, 0)
	copy(s.col[pos+1:], s.col[pos:])
	s.col[pos] = int32(j)
	s.val = append(s.val, 0)
	copy(s.val[pos+1:], s.val[pos:])
	s.val[pos] = v
	for r := i + 1; r <= s.n; r++ {
		s.rowPtr[r]++
	}
}

// Set assigns J_ij = J_ji = v, inserting the structural entries when
// absent. Setting the diagonal is rejected.
func (s *Sparse) Set(i, j int, v float64) {
	if i == j {
		panic("ising: diagonal coupling J_ii must stay zero")
	}
	s.upsert(i, j, v, false)
	s.upsert(j, i, v, false)
	s.frob.invalidate()
}

// Add accumulates v onto J_ij (and J_ji), inserting when absent.
func (s *Sparse) Add(i, j int, v float64) {
	if i == j {
		panic("ising: diagonal coupling J_ii must stay zero")
	}
	s.upsert(i, j, v, true)
	s.upsert(j, i, v, true)
	s.frob.invalidate()
}

// AllFinite reports whether every stored coupling is finite.
func (s *Sparse) AllFinite() bool {
	for _, v := range s.val {
		if v-v != 0 {
			return false
		}
	}
	return true
}

// Field implements Coupler: out = J*x walking only the stored entries,
// per row in ascending-column order — the same per-output accumulation
// order as Dense.Field minus the exact-zero terms, hence bit-identical on
// finite inputs.
func (s *Sparse) Field(x, out []float64) {
	for i := 0; i < s.n; i++ {
		lo, hi := s.rowPtr[i], s.rowPtr[i+1]
		cols := s.col[lo:hi]
		vals := s.val[lo:hi][:len(cols)]
		sum := 0.0
		for e, c := range cols {
			sum += vals[e] * x[c]
		}
		out[i] = sum
	}
}

// FrobeniusNorm implements Coupler; the scan over stored entries is
// memoized and invalidated by Set/Add.
func (s *Sparse) FrobeniusNorm() float64 {
	return s.frob.norm(func() float64 {
		sum := 0.0
		for _, v := range s.val {
			sum += v * v
		}
		return math.Sqrt(sum)
	})
}

// FieldBatch implements BatchCoupler: the row's entries are loaded once
// and applied to four replica lanes at a time, so the CSR structure —
// nnz·(4+8) bytes — streams exactly once per call no matter the replica
// count, and the four accumulator chains hide the gather latency of the
// x[col] loads. Per-lane accumulation order matches Field exactly.
func (s *Sparse) FieldBatch(x, out []float64, r int) {
	n := s.n
	checkBatchDims(n, len(x), len(out), r)
	for i := 0; i < n; i++ {
		lo, hi := s.rowPtr[i], s.rowPtr[i+1]
		cols := s.col[lo:hi]
		vals := s.val[lo:hi][:len(cols)]
		k := 0
		for ; k+4 <= r; k += 4 {
			x0 := x[k*n : k*n+n]
			x1 := x[k*n+n : k*n+2*n]
			x2 := x[k*n+2*n : k*n+3*n]
			x3 := x[k*n+3*n : k*n+4*n]
			var s0, s1, s2, s3 float64
			for e, c := range cols {
				v := vals[e]
				s0 += v * x0[c]
				s1 += v * x1[c]
				s2 += v * x2[c]
				s3 += v * x3[c]
			}
			out[k*n+i] = s0
			out[k*n+n+i] = s1
			out[k*n+2*n+i] = s2
			out[k*n+3*n+i] = s3
		}
		for ; k < r; k++ {
			xk := x[k*n : k*n+n]
			var sum float64
			for e, c := range cols {
				sum += vals[e] * xk[c]
			}
			out[k*n+i] = sum
		}
	}
}

// ForEachRow calls f for every stored entry (j, J_ij) of row i in
// ascending-column order. Consumers that need the coupling graph itself —
// the shard layer's adjacency extraction — walk the CSR structure this
// way in O(nnz) instead of probing all n² slots through At.
func (s *Sparse) ForEachRow(i int, f func(j int, v float64)) {
	lo, hi := s.rowPtr[i], s.rowPtr[i+1]
	for e := lo; e < hi; e++ {
		f(int(s.col[e]), s.val[e])
	}
}

// ToDense materializes the CSR coupling as a Dense matrix (round-trip
// validation and ablation benches).
func (s *Sparse) ToDense() *Dense {
	d := NewDense(s.n)
	for i := 0; i < s.n; i++ {
		for e := s.rowPtr[i]; e < s.rowPtr[i+1]; e++ {
			d.j[i*d.n+int(s.col[e])] = s.val[e]
		}
	}
	d.frob.invalidate()
	return d
}
