// Package matrix provides the dense, band and vector linear-algebra
// substrate used by the DBT transformations and the systolic array
// simulators. Everything is float64 and row-major; the package favors
// explicit index arithmetic over cleverness because the DBT layer needs
// exact control of element placement.
package matrix

import (
	"fmt"
	"math"
)

// Dense is a row-major dense matrix.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense returns a zeroed rows×cols dense matrix.
func NewDense(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("matrix: invalid dimensions %d×%d", rows, cols))
	}
	return &Dense{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// FromRows builds a Dense from a slice of equally long rows.
func FromRows(rows [][]float64) *Dense {
	if len(rows) == 0 {
		return NewDense(0, 0)
	}
	m := NewDense(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.cols {
			panic(fmt.Sprintf("matrix: ragged row %d: %d != %d", i, len(r), m.cols))
		}
		copy(m.data[i*m.cols:(i+1)*m.cols], r)
	}
	return m
}

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Dense) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("matrix: index (%d,%d) out of range %d×%d", i, j, m.rows, m.cols))
	}
}

// RawRow returns row i as a slice sharing the matrix's backing storage —
// no copy, no per-element bounds checks. It exists for the row-wise host
// loops on the compiled-engine fast path; callers must not modify or
// retain the slice.
func (m *Dense) RawRow(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("matrix: row %d out of range %d", i, m.rows))
	}
	return m.data[i*m.cols : (i+1)*m.cols]
}

// Raw returns the matrix's backing storage (row-major, len Rows·Cols) — no
// copy, no bounds checks. It exists for the compiled engine's gather paths
// (the sparse plan indexes the padded matrix flat); callers must not
// modify, resize or retain the slice.
func (m *Dense) Raw() []float64 { return m.data }

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	c := NewDense(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// Reuse returns a rows×cols matrix backed by dst's storage when dst is
// non-nil and has the capacity, and a fresh matrix otherwise. The contents
// are arbitrary (not zeroed) — it exists for scratch arenas and workspaces
// that fully overwrite the matrix before reading it. Callers must treat the
// previous view of dst as invalid after a Reuse.
func Reuse(dst *Dense, rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("matrix: invalid dimensions %d×%d", rows, cols))
	}
	if dst == nil || cap(dst.data) < rows*cols {
		return &Dense{rows: rows, cols: cols, data: make([]float64, rows*cols)}
	}
	dst.rows, dst.cols = rows, cols
	dst.data = dst.data[:rows*cols]
	return dst
}

// CloneInto copies src into dst (reusing dst's storage when possible,
// see Reuse) and returns the destination.
func CloneInto(dst, src *Dense) *Dense {
	dst = Reuse(dst, src.rows, src.cols)
	copy(dst.data, src.data)
	return dst
}

// PadInto writes a rows×cols zero-padded copy of src into dst (reusing
// dst's storage when possible, see Reuse) and returns the destination. It
// panics if the target is smaller than src in either dimension.
func PadInto(dst, src *Dense, rows, cols int) *Dense {
	if rows < src.rows || cols < src.cols {
		panic(fmt.Sprintf("matrix: cannot pad %d×%d down to %d×%d", src.rows, src.cols, rows, cols))
	}
	dst = Reuse(dst, rows, cols)
	for i := 0; i < src.rows; i++ {
		row := dst.data[i*cols : i*cols+cols]
		copy(row, src.data[i*src.cols:(i+1)*src.cols])
		clear(row[src.cols:])
	}
	clear(dst.data[src.rows*cols:])
	return dst
}

// SliceInto copies the sub-matrix of src with rows [r0,r1) and cols [c0,c1)
// into dst (reusing dst's storage when possible, see Reuse) and returns the
// destination.
func SliceInto(dst, src *Dense, r0, r1, c0, c1 int) *Dense {
	if r0 < 0 || r1 > src.rows || c0 < 0 || c1 > src.cols || r0 > r1 || c0 > c1 {
		panic(fmt.Sprintf("matrix: bad slice [%d:%d, %d:%d] of %d×%d", r0, r1, c0, c1, src.rows, src.cols))
	}
	dst = Reuse(dst, r1-r0, c1-c0)
	for i := r0; i < r1; i++ {
		copy(dst.data[(i-r0)*dst.cols:(i-r0+1)*dst.cols], src.data[i*src.cols+c0:i*src.cols+c1])
	}
	return dst
}

// SetRect writes src into dst starting at (r0, c0). It panics when src does
// not fit.
func (m *Dense) SetRect(r0, c0 int, src *Dense) {
	if r0 < 0 || c0 < 0 || r0+src.rows > m.rows || c0+src.cols > m.cols {
		panic(fmt.Sprintf("matrix: SetRect %d×%d at (%d,%d) outside %d×%d", src.rows, src.cols, r0, c0, m.rows, m.cols))
	}
	for i := 0; i < src.rows; i++ {
		copy(m.data[(r0+i)*m.cols+c0:(r0+i)*m.cols+c0+src.cols], src.data[i*src.cols:(i+1)*src.cols])
	}
}

// Pad returns a rows×cols copy of m extended with zeros. It panics if the
// target is smaller than m in either dimension.
func (m *Dense) Pad(rows, cols int) *Dense {
	if rows < m.rows || cols < m.cols {
		panic(fmt.Sprintf("matrix: cannot pad %d×%d down to %d×%d", m.rows, m.cols, rows, cols))
	}
	p := NewDense(rows, cols)
	for i := 0; i < m.rows; i++ {
		copy(p.data[i*cols:i*cols+m.cols], m.data[i*m.cols:(i+1)*m.cols])
	}
	return p
}

// Slice returns a copy of the sub-matrix with rows [r0,r1) and cols [c0,c1).
func (m *Dense) Slice(r0, r1, c0, c1 int) *Dense {
	if r0 < 0 || r1 > m.rows || c0 < 0 || c1 > m.cols || r0 > r1 || c0 > c1 {
		panic(fmt.Sprintf("matrix: bad slice [%d:%d, %d:%d] of %d×%d", r0, r1, c0, c1, m.rows, m.cols))
	}
	s := NewDense(r1-r0, c1-c0)
	for i := r0; i < r1; i++ {
		copy(s.data[(i-r0)*s.cols:(i-r0+1)*s.cols], m.data[i*m.cols+c0:i*m.cols+c1])
	}
	return s
}

// Transpose returns a new transposed matrix.
func (m *Dense) Transpose() *Dense {
	t := NewDense(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.data[j*t.cols+i] = m.data[i*m.cols+j]
		}
	}
	return t
}

// MulVec computes m·x + b (reference implementation). b may be nil.
func (m *Dense) MulVec(x, b Vector) Vector {
	if len(x) != m.cols {
		panic(fmt.Sprintf("matrix: MulVec dim mismatch: %d cols vs len(x)=%d", m.cols, len(x)))
	}
	if b != nil && len(b) != m.rows {
		panic(fmt.Sprintf("matrix: MulVec dim mismatch: %d rows vs len(b)=%d", m.rows, len(b)))
	}
	y := make(Vector, m.rows)
	for i := 0; i < m.rows; i++ {
		s := 0.0
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, a := range row {
			s += a * x[j]
		}
		if b != nil {
			s += b[i]
		}
		y[i] = s
	}
	return y
}

// Mul computes m·other (reference implementation).
func (m *Dense) Mul(other *Dense) *Dense {
	if m.cols != other.rows {
		panic(fmt.Sprintf("matrix: Mul dim mismatch: %d×%d · %d×%d", m.rows, m.cols, other.rows, other.cols))
	}
	c := NewDense(m.rows, other.cols)
	for i := 0; i < m.rows; i++ {
		for k := 0; k < m.cols; k++ {
			a := m.data[i*m.cols+k]
			if a == 0 {
				continue
			}
			for j := 0; j < other.cols; j++ {
				c.data[i*c.cols+j] += a * other.data[k*other.cols+j]
			}
		}
	}
	return c
}

// AddM returns m + other element-wise.
func (m *Dense) AddM(other *Dense) *Dense {
	if m.rows != other.rows || m.cols != other.cols {
		panic("matrix: AddM dim mismatch")
	}
	c := m.Clone()
	for i := range c.data {
		c.data[i] += other.data[i]
	}
	return c
}

// Equal reports whether m and other have identical shape and elements within
// tolerance tol.
func (m *Dense) Equal(other *Dense, tol float64) bool {
	if m.rows != other.rows || m.cols != other.cols {
		return false
	}
	for i := range m.data {
		if math.Abs(m.data[i]-other.data[i]) > tol {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns the largest absolute element-wise difference.
func (m *Dense) MaxAbsDiff(other *Dense) float64 {
	if m.rows != other.rows || m.cols != other.cols {
		return math.Inf(1)
	}
	d := 0.0
	for i := range m.data {
		if a := math.Abs(m.data[i] - other.data[i]); a > d {
			d = a
		}
	}
	return d
}
