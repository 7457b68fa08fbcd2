package matrix

import (
	"math/rand"
	"testing"
)

// TestReuse: the storage-reusing constructors must reuse capacity when they
// can, allocate when they must, and always match their allocating twins.
func TestReuse(t *testing.T) {
	m := Reuse(nil, 3, 4)
	if m.Rows() != 3 || m.Cols() != 4 {
		t.Fatalf("Reuse(nil) shape %d×%d", m.Rows(), m.Cols())
	}
	m.Set(2, 3, 7)
	back := Reuse(m, 2, 2)
	if back != m {
		t.Error("Reuse with sufficient capacity should return the same header")
	}
	if back.Rows() != 2 || back.Cols() != 2 {
		t.Fatalf("Reuse shape %d×%d", back.Rows(), back.Cols())
	}
	grown := Reuse(back, 5, 5)
	if grown == back {
		t.Error("Reuse beyond capacity must allocate")
	}
}

// TestReuseCopiesMatchAllocating: CloneInto/PadInto/SliceInto produce the
// same values as Clone/Pad/Slice, both into nil and into a reused target.
func TestReuseCopiesMatchAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var cDst, pDst, sDst *Dense
	for trial := 0; trial < 20; trial++ {
		rows, cols := 1+rng.Intn(7), 1+rng.Intn(7)
		a := RandomDense(rng, rows, cols, 5)
		cDst = CloneInto(cDst, a)
		if !cDst.Equal(a.Clone(), 0) {
			t.Fatal("CloneInto mismatch")
		}
		pr, pc := rows+rng.Intn(4), cols+rng.Intn(4)
		pDst = PadInto(pDst, a, pr, pc)
		if !pDst.Equal(a.Pad(pr, pc), 0) {
			t.Fatal("PadInto mismatch (stale values in the padding?)")
		}
		r0, c0 := rng.Intn(rows), rng.Intn(cols)
		r1, c1 := r0+rng.Intn(rows-r0)+1, c0+rng.Intn(cols-c0)+1
		sDst = SliceInto(sDst, a, r0, r1, c0, c1)
		if !sDst.Equal(a.Slice(r0, r1, c0, c1), 0) {
			t.Fatal("SliceInto mismatch")
		}
	}
}

// TestSetRect: writing a sub-rectangle back must be the inverse of Slice.
func TestSetRect(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := RandomDense(rng, 6, 7, 5)
	sub := RandomDense(rng, 2, 3, 5)
	b := a.Clone()
	b.SetRect(3, 2, sub)
	for i := 0; i < 6; i++ {
		for j := 0; j < 7; j++ {
			want := a.At(i, j)
			if i >= 3 && i < 5 && j >= 2 && j < 5 {
				want = sub.At(i-3, j-2)
			}
			if b.At(i, j) != want {
				t.Fatalf("SetRect wrong at (%d,%d)", i, j)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("SetRect outside the target must panic")
		}
	}()
	b.SetRect(5, 5, sub)
}
