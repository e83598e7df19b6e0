package mem

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestAllocAlignment(t *testing.T) {
	m := New(1 << 20)
	a := m.Alloc(3, 1)
	b := m.Alloc(10, 128)
	if b%128 != 0 {
		t.Fatalf("Alloc returned unaligned address %d", b)
	}
	if b <= a {
		t.Fatalf("allocations overlap: %d then %d", a, b)
	}
}

// TestMemorySize: New backs exactly the bytes it is asked for.
func TestMemorySize(t *testing.T) {
	m := New(4096)
	if got := len(m.Bytes(0, 4096)); got != 4096 {
		t.Fatalf("Bytes(0, 4096) returned %d bytes", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("an access one byte past the size did not panic")
		}
	}()
	m.Bytes(0, 4097)
}

func TestAllocExhaustionPanics(t *testing.T) {
	m := New(64)
	defer func() {
		if recover() == nil {
			t.Error("over-allocation did not panic")
		}
	}()
	m.Alloc(128, 1)
}

func TestAllocBadAlignPanics(t *testing.T) {
	m := New(64)
	defer func() {
		if recover() == nil {
			t.Error("non-power-of-two align did not panic")
		}
	}()
	m.Alloc(8, 3)
}

// TestReadWriteZero: fresh memory reads zero, and what Write stores
// Read returns.
func TestReadWriteZero(t *testing.T) {
	m := New(1024)
	a := m.Alloc(16, 1)
	if got := m.Read(a, 16); !bytes.Equal(got, make([]byte, 16)) {
		t.Fatalf("fresh memory reads %v", got)
	}
	m.Write(a, []byte("hello"))
	if got := string(m.Read(a, 5)); got != "hello" {
		t.Fatalf("Read = %q", got)
	}
}

func TestBytesOutOfBoundsPanics(t *testing.T) {
	m := New(16)
	defer func() {
		if recover() == nil {
			t.Error("OOB access did not panic")
		}
	}()
	m.Bytes(8, 16)
}

// TestReservedRange: reserved address space bumps and aligns like
// Alloc's, lies wholly above the backed bytes (whose capacity it does not
// consume), bounds-checks priced accesses, and has no bytes to hand out.
func TestReservedRange(t *testing.T) {
	const size = 1000 // not a multiple of the alignment below
	m := New(size)
	backed := m.Alloc(100, 4)
	a := m.Reserve(300, 256)
	b := m.Reserve(8, 256)
	if a%256 != 0 || b%256 != 0 || int(a) < size || b < a+300 {
		t.Fatalf("Reserve returned %d then %d for a %d-byte memory", a, b, size)
	}
	if m.brk != 100 || m.Alloc(size-100, 1) != backed+100 {
		t.Fatal("a reservation consumed backed capacity")
	}
	panics := func(f func()) (p bool) {
		defer func() { p = recover() != nil }()
		f()
		return false
	}
	for _, c := range []struct {
		what string
		addr Addr
		n    int
		ok   bool
	}{
		{"backed", 0, size, true},
		{"first reservation", a, 300, true},
		{"last reserved bytes", b, 8, true},
		{"past the last reservation", b, 9, false},
		{"backed into reserved", Addr(size - 4), int(a) - size + 8, false},
		{"negative length", a, -1, false},
	} {
		if got := !panics(func() { m.Check(c.addr, c.n) }); got != c.ok {
			t.Errorf("Check(%s) accepted=%v, want %v", c.what, got, c.ok)
		}
	}
	for _, f := range []func(){
		func() { m.Bytes(a, 4) },
		func() { m.Read(b, 8) },
		func() { m.Write(a, []byte{1}) },
		func() { m.Bytes(Addr(size-4), 8) },
		func() { m.Reserve(8, 3) },
		func() { m.Reserve(-1, 1) },
	} {
		if !panics(f) {
			t.Error("an access to bytes that do not exist, or a bad reservation, did not panic")
		}
	}
}

func TestTransposeKnown(t *testing.T) {
	m := New(1 << 12)
	src := m.Alloc(6, 1)
	dst := m.Alloc(6, 1)
	// 2 rows x 3 cols: [a b c; d e f] -> columns [a d; b e; c f]
	m.Write(src, []byte("abcdef"))
	Transpose(m, dst, src, 2, 3)
	if got := string(m.Read(dst, 6)); got != "adbecf" {
		t.Fatalf("Transpose = %q, want %q", got, "adbecf")
	}
}

func TestTransposeInvolution(t *testing.T) {
	// Property: transpose(rows,cols) then transpose(cols,rows) restores.
	f := func(seed []byte, r8, c8 uint8) bool {
		rows := int(r8%40) + 1
		cols := int(c8%70) + 1
		n := rows * cols
		m := New(3*n + 256)
		src := m.Alloc(n, 1)
		mid := m.Alloc(n, 1)
		back := m.Alloc(n, 1)
		data := make([]byte, n)
		for i := range data {
			if len(seed) > 0 {
				data[i] = seed[i%len(seed)]
			} else {
				data[i] = byte(i * 31)
			}
		}
		m.Write(src, data)
		Transpose(m, mid, src, rows, cols)
		Transpose(m, back, mid, cols, rows)
		return bytes.Equal(m.Read(back, n), data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTransposeLargeTiled(t *testing.T) {
	// Exercise the tiled path with dimensions larger than one tile and
	// verify the mapping element-wise.
	rows, cols := 100, 67
	n := rows * cols
	m := New(2*n + 64)
	src := m.Alloc(n, 1)
	dst := m.Alloc(n, 1)
	s := m.Bytes(src, n)
	for i := range s {
		s[i] = byte(i % 251)
	}
	Transpose(m, dst, src, rows, cols)
	d := m.Bytes(dst, n)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if d[c*rows+r] != s[r*cols+c] {
				t.Fatalf("element (%d,%d) wrong", r, c)
			}
		}
	}
}

func TestTransposeOverlapPanics(t *testing.T) {
	m := New(1 << 12)
	a := m.Alloc(64, 1)
	defer func() {
		if recover() == nil {
			t.Error("overlapping transpose did not panic")
		}
	}()
	Transpose(m, a+8, a, 8, 8)
}

func TestTransposeBytes(t *testing.T) {
	if TransposeBytes(4, 8) != 64 {
		t.Fatalf("TransposeBytes = %d", TransposeBytes(4, 8))
	}
}

func TestTransposeElemsWords(t *testing.T) {
	// 4-byte-element transpose: words move as units.
	rows, cols, elem := 3, 4, 4
	n := rows * cols * elem
	m := New(2*n + 64)
	src := m.Alloc(n, 4)
	dst := m.Alloc(n, 4)
	s := m.Bytes(src, n)
	for i := range s {
		s[i] = byte(i)
	}
	TransposeElems(m, dst, src, rows, cols, elem)
	d := m.Bytes(dst, n)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			want := s[(r*cols+c)*elem : (r*cols+c+1)*elem]
			got := d[(c*rows+r)*elem : (c*rows+r+1)*elem]
			if !bytes.Equal(got, want) {
				t.Fatalf("word (%d,%d) = %v, want %v", r, c, got, want)
			}
		}
	}
}

func TestTransposeElemsRangePartial(t *testing.T) {
	rows, cols, elem := 8, 6, 4
	n := rows * cols * elem
	m := New(2*n + 64)
	src := m.Alloc(n, 4)
	dst := m.Alloc(n, 4)
	s := m.Bytes(src, n)
	for i := range s {
		s[i] = byte(i % 251)
	}
	live := 3
	TransposeElemsRange(m, dst, src, rows, cols, elem, live, cols)
	d := m.Bytes(dst, n)
	// Live rows transposed...
	for r := 0; r < live; r++ {
		for c := 0; c < cols; c++ {
			want := s[(r*cols+c)*elem : (r*cols+c+1)*elem]
			got := d[(c*rows+r)*elem : (c*rows+r+1)*elem]
			if !bytes.Equal(got, want) {
				t.Fatalf("live word (%d,%d) wrong", r, c)
			}
		}
	}
	// ...dead rows untouched (still zero).
	for c := 0; c < cols; c++ {
		for r := live; r < rows; r++ {
			got := d[(c*rows+r)*elem : (c*rows+r+1)*elem]
			if !bytes.Equal(got, make([]byte, elem)) {
				t.Fatalf("dead word (%d,%d) written", r, c)
			}
		}
	}
}

func TestTransposeElemsRangeFullDelegates(t *testing.T) {
	rows, cols := 5, 7
	n := rows * cols
	m := New(3*n + 64)
	src := m.Alloc(n, 1)
	a := m.Alloc(n, 1)
	b := m.Alloc(n, 1)
	s := m.Bytes(src, n)
	for i := range s {
		s[i] = byte(i * 7)
	}
	TransposeElems(m, a, src, rows, cols, 1)
	TransposeElemsRange(m, b, src, rows, cols, 1, rows, cols)
	if !bytes.Equal(m.Bytes(a, n), m.Bytes(b, n)) {
		t.Fatal("full-range TransposeElemsRange differs from TransposeElems")
	}
}

func TestTransposeElemsRangeValidation(t *testing.T) {
	m := New(1 << 12)
	src := m.Alloc(64, 4)
	dst := m.Alloc(64, 4)
	defer func() {
		if recover() == nil {
			t.Error("liveRows > rows did not panic")
		}
	}()
	TransposeElemsRange(m, dst, src, 4, 4, 4, 5, 4)
}
