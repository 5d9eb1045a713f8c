package phys

import (
	"reflect"
	"testing"
	"unsafe"

	"hyperhammer/internal/memdef"
)

func TestNewMemoryIsZero(t *testing.T) {
	m := New(1 * memdef.MiB)
	if m.Frames() != 256 {
		t.Fatalf("Frames() = %d, want 256", m.Frames())
	}
	for _, a := range []memdef.HPA{0, 8, 4096, 1*memdef.MiB - 8} {
		if w := m.Word(a); w != 0 {
			t.Errorf("Word(%#x) = %#x, want 0", a, w)
		}
	}
	if m.MaterializedFrames() != 0 {
		t.Errorf("fresh memory materialized %d frames", m.MaterializedFrames())
	}
}

func TestWordWriteRead(t *testing.T) {
	m := New(64 * memdef.KiB)
	m.SetWord(0x2008, 0xDEADBEEF)
	if got := m.Word(0x2008); got != 0xDEADBEEF {
		t.Errorf("Word = %#x", got)
	}
	if got := m.Word(0x2000); got != 0 {
		t.Errorf("neighbor word = %#x, want 0", got)
	}
	if m.MaterializedFrames() != 1 {
		t.Errorf("materialized %d frames, want 1", m.MaterializedFrames())
	}
}

func TestWritingPatternValueStaysCompact(t *testing.T) {
	m := New(64 * memdef.KiB)
	m.FillWord(3, 0x42)
	m.SetWord(3*memdef.PageSize+16, 0x42) // same value: no promotion
	if m.MaterializedFrames() != 0 {
		t.Errorf("materialized %d frames writing the pattern value", m.MaterializedFrames())
	}
	m.SetWord(3*memdef.PageSize+16, 0x43)
	if m.MaterializedFrames() != 1 {
		t.Errorf("materialized %d frames after divergent write", m.MaterializedFrames())
	}
	if got := m.Word(3*memdef.PageSize + 24); got != 0x42 {
		t.Errorf("pattern word lost on materialize: %#x", got)
	}
}

func TestFillWordAndZeroPage(t *testing.T) {
	m := New(64 * memdef.KiB)
	m.FillWord(2, 0xABCD)
	for i := 0; i < 512; i++ {
		if got := m.PageWord(2, i); got != 0xABCD {
			t.Fatalf("PageWord(2,%d) = %#x", i, got)
		}
	}
	m.SetPageWord(2, 100, 7)
	m.ZeroPage(2)
	if got := m.PageWord(2, 100); got != 0 {
		t.Errorf("after ZeroPage word = %#x", got)
	}
	if m.MaterializedFrames() != 0 {
		t.Errorf("ZeroPage left %d materialized frames", m.MaterializedFrames())
	}
}

func TestPageUniform(t *testing.T) {
	m := New(64 * memdef.KiB)
	m.FillWord(1, 9)
	if w, ok := m.PageUniform(1); !ok || w != 9 {
		t.Errorf("PageUniform = %#x,%v, want 9,true", w, ok)
	}
	m.SetPageWord(1, 5, 10)
	if _, ok := m.PageUniform(1); ok {
		t.Error("PageUniform true after divergent write")
	}
	m.SetPageWord(1, 5, 9)
	if w, ok := m.PageUniform(1); !ok || w != 9 {
		t.Errorf("PageUniform on re-uniformed page = %#x,%v", w, ok)
	}
}

func TestFlipBitDirections(t *testing.T) {
	m := New(64 * memdef.KiB)
	const addr = memdef.HPA(0x1003) // byte 3 of a word
	// Bit currently 0: 1->0 flip must not fire, 0->1 must.
	if m.FlipBit(addr, 5, true) {
		t.Error("1->0 flip fired on a zero bit")
	}
	if !m.FlipBit(addr, 5, false) {
		t.Error("0->1 flip did not fire on a zero bit")
	}
	want := uint64(1) << (3*8 + 5)
	if got := m.Word(0x1000); got != want {
		t.Errorf("word after flip = %#x, want %#x", got, want)
	}
	// Now the bit is 1: 0->1 must not fire, 1->0 must.
	if m.FlipBit(addr, 5, false) {
		t.Error("0->1 flip fired on a one bit")
	}
	if !m.FlipBit(addr, 5, true) {
		t.Error("1->0 flip did not fire on a one bit")
	}
	if got := m.Word(0x1000); got != 0 {
		t.Errorf("word after round trip = %#x, want 0", got)
	}
}

func TestFlipBitOnPatternPage(t *testing.T) {
	m := New(64 * memdef.KiB)
	m.FillWord(4, ^uint64(0))
	a := memdef.HPA(4*memdef.PageSize + 8)
	if !m.FlipBit(a, 0, true) {
		t.Fatal("flip on all-ones pattern page failed")
	}
	if got := m.Word(a); got != ^uint64(0)-1 {
		t.Errorf("flipped word = %#x", got)
	}
	// Other words retain the pattern.
	if got := m.Word(a + 8); got != ^uint64(0) {
		t.Errorf("unflipped word = %#x", got)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	m := New(64 * memdef.KiB)
	mustPanic(t, func() { m.Word(64 * memdef.KiB) })
	mustPanic(t, func() { m.Word(1) }) // unaligned
	mustPanic(t, func() { m.SetWord(3, 0) })
	mustPanic(t, func() { m.FillWord(memdef.PFN(16), 0) })
	mustPanic(t, func() { m.FlipBit(0, 9, true) })
	mustPanic(t, func() { New(100) })
	mustPanic(t, func() { m.ZeroRange(15, 2) })
	mustPanic(t, func() { m.ZeroRange(17, 0) })
	mustPanic(t, func() { m.SetPageWord(0, 512, 1) })
}

// The per-frame arrays are the store's fixed cost on a 16 GiB host
// (4 M frames): they must stay pointer-free, so the collector never
// scans them, and within 12 bytes per frame.
func TestPerFrameArraysCompact(t *testing.T) {
	m := New(64 * memdef.KiB)
	if n := unsafe.Sizeof(m.pattern[0]) + unsafe.Sizeof(m.slot[0]); n > 12 {
		t.Errorf("per-frame state is %d bytes, want at most 12", n)
	}
	for _, typ := range []reflect.Type{
		reflect.TypeOf(m.pattern).Elem(),
		reflect.TypeOf(m.slot).Elem(),
		reflect.TypeOf(sparseRec{}),
	} {
		if hasPointers(typ) {
			t.Errorf("%v holds pointers", typ)
		}
	}
}

func hasPointers(typ reflect.Type) bool {
	switch typ.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64:
		return false
	case reflect.Array:
		return hasPointers(typ.Elem())
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			if hasPointers(typ.Field(i).Type) {
				return true
			}
		}
		return false
	}
	return true
}

func TestSparseFramePromotesAtKPlusOne(t *testing.T) {
	m := New(64 * memdef.KiB)
	m.FillWord(2, 0x5A)
	for i := 0; i < sparseMax; i++ {
		m.SetPageWord(2, 10*i, uint64(i))
	}
	if m.slot[2] <= 0 {
		t.Fatalf("frame with %d overrides not sparse (slot %d)", sparseMax, m.slot[2])
	}
	// Writing the pattern back frees an override, so one more
	// distinct word still fits.
	m.SetPageWord(2, 0, 0x5A)
	m.SetPageWord(2, 501, 1)
	if m.slot[2] <= 0 {
		t.Fatalf("frame promoted with %d live overrides", sparseMax)
	}
	m.SetPageWord(2, 502, 2)
	if m.slot[2] >= 0 {
		t.Fatalf("frame still sparse after %d distinct overrides", sparseMax+1)
	}
	for i := 0; i < wordsPerPage; i++ {
		want := uint64(0x5A)
		switch {
		case i == 501:
			want = 1
		case i == 502:
			want = 2
		case i > 0 && i%10 == 0 && i < 10*sparseMax:
			want = uint64(i / 10)
		}
		if got := m.PageWord(2, i); got != want {
			t.Errorf("word %d = %#x after promotion, want %#x", i, got, want)
		}
	}
	// The promoted frame's record is free for the next sparse frame.
	m.SetPageWord(3, 0, 1)
	if n := m.sparse.n; n != 1 {
		t.Errorf("sparse store holds %d records for one sparse frame", n)
	}
	if m.MaterializedFrames() != 2 {
		t.Errorf("materialized %d frames, want 2", m.MaterializedFrames())
	}
	m.ZeroRange(0, m.Frames())
	if m.MaterializedFrames() != 0 || m.slot[2] != 0 {
		t.Errorf("ZeroRange left %d materialized frames", m.MaterializedFrames())
	}
}

// Growing the dense store never moves a page already handed out, and
// released pages are reused before it grows again.
func TestDenseStoreGrowthKeepsPages(t *testing.T) {
	const frames = 192
	m := New(4 * memdef.MiB)
	densify := func(p memdef.PFN) {
		for i := 0; i <= sparseMax; i++ {
			m.SetPageWord(p, i, uint64(p)<<16|uint64(i)+1)
		}
	}
	densify(0)
	first := m.densePage(m.slot[0])
	for p := memdef.PFN(1); p < frames; p++ {
		densify(p)
	}
	if m.densePage(m.slot[0]) != first {
		t.Fatal("frame 0's dense page moved when the store grew")
	}
	for p := memdef.PFN(0); p < frames; p++ {
		if got := m.PageWord(p, sparseMax); got != uint64(p)<<16|sparseMax+1 {
			t.Fatalf("frame %d word %d = %#x", p, sparseMax, got)
		}
	}
	m.ZeroRange(0, frames/2)
	for p := memdef.PFN(frames); p < frames+frames/2; p++ {
		densify(p)
	}
	if len(m.dense.pages) != frames {
		t.Errorf("store grew to %d pages with %d free", len(m.dense.pages), frames/2)
	}
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}

// The sparse store grows a chunk at a time and never moves a record.
func TestSparseStoreGrowsByChunks(t *testing.T) {
	m := New(1 * memdef.MiB)
	m.SetPageWord(0, 1, 7)
	first := m.sparseRec(m.slot[0])
	for p := memdef.PFN(1); p <= sparseChunk; p++ {
		m.SetPageWord(p, 1, 7)
	}
	if got := len(m.sparse.chunks); got != 2 {
		t.Errorf("%d sparse frames took %d chunks, want 2", sparseChunk+1, got)
	}
	if m.sparseRec(m.slot[0]) != first || m.PageWord(0, 1) != 7 {
		t.Error("frame 0's sparse record moved when the store grew")
	}
}
