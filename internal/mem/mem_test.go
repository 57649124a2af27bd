package mem

import "testing"

func TestSlabPointerStability(t *testing.T) {
	var s Slab[int]
	var ptrs []*int
	for i := 0; i < 10000; i++ {
		p := s.Alloc()
		if *p != 0 {
			t.Fatalf("Alloc %d returned non-zero value %d", i, *p)
		}
		*p = i
		ptrs = append(ptrs, p)
	}
	for i, p := range ptrs {
		if *p != i {
			t.Fatalf("value %d moved or was overwritten: got %d", i, *p)
		}
	}
}

func TestSliceSlabIndependence(t *testing.T) {
	var s SliceSlab[int]
	a := s.Make(4)
	b := s.Make(3)
	for i := range a {
		a[i] = 10 + i
	}
	for i := range b {
		b[i] = 20 + i
	}
	// Appending to an earlier slice must not bleed into a later one.
	a = append(a, 99)
	if b[0] != 20 {
		t.Fatalf("append to a overwrote b: b = %v", b)
	}
	if len(a) != 5 || a[4] != 99 {
		t.Fatalf("append to a lost data: a = %v", a)
	}
	if s.Make(0) != nil {
		t.Fatal("Make(0) should return nil")
	}
	// Requests larger than a chunk still work.
	big := s.Make(100000)
	if len(big) != 100000 {
		t.Fatalf("big Make returned len %d", len(big))
	}
}

func TestSlabAllocAmortized(t *testing.T) {
	var s Slab[[4]int]
	// Warm past the growth phase, then the steady state is one heap chunk
	// per slabChunkMax allocations.
	for i := 0; i < 4*slabChunkMax; i++ {
		s.Alloc()
	}
	avg := testing.AllocsPerRun(3*slabChunkMax, func() { s.Alloc() })
	if avg > 0.01 {
		t.Fatalf("Slab.Alloc steady state allocates %.4f objects/op, want ~0", avg)
	}
}

func TestScratchHelpers(t *testing.T) {
	buf := make([]int, 8)
	for i := range buf {
		buf[i] = 7
	}
	got := Ints(buf, 4)
	if len(got) != 4 || &got[0] != &buf[0] {
		t.Fatalf("Ints should reuse the backing array")
	}
	got = Ints(buf[:0], 16)
	if len(got) != 16 {
		t.Fatalf("Ints grow: len = %d", len(got))
	}
}
