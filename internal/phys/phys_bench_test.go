package phys

import (
	"testing"

	"hyperhammer/internal/memdef"
)

func BenchmarkWordPattern(b *testing.B) {
	m := New(16 * memdef.MiB)
	m.FillWord(100, 0x55)
	addr := memdef.HPA(100*memdef.PageSize + 64)
	var sink uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += m.Word(addr)
	}
	_ = sink
}

func BenchmarkWordMaterialized(b *testing.B) {
	m := New(16 * memdef.MiB)
	m.SetWord(100*memdef.PageSize, 1) // materialize
	addr := memdef.HPA(100*memdef.PageSize + 64)
	var sink uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += m.Word(addr)
	}
	_ = sink
}

func BenchmarkFillWord(b *testing.B) {
	m := New(16 * memdef.MiB)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.FillWord(memdef.PFN(i&1023), uint64(i))
	}
}

func BenchmarkFlipBit(b *testing.B) {
	m := New(16 * memdef.MiB)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := memdef.HPA((i&1023)*memdef.PageSize + i&0xFF8)
		m.FlipBit(addr, uint(i&7), i&8 == 0)
	}
}

// BenchmarkTablePageLifecycle is one IOPT leaf's life during vIOMMU
// exhaustion: zeroed on allocation, one entry written and read back,
// then refilled on free, cycling over 60,000 frames. It must stay
// allocation-free.
func BenchmarkTablePageLifecycle(b *testing.B) {
	const frames = 60000
	m := New(frames * memdef.PageSize)
	m.SetPageWord(0, 0, 1) // warm the sparse store
	m.FillWord(0, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := memdef.PFN(i % frames)
		a := p.HPAOf() + memdef.HPA(i&0xFF8)
		m.ZeroPage(p)
		m.SetWord(a, uint64(i)|1)
		lifecycleSink += m.Word(a)
		m.FillWord(p, 0)
	}
}

var lifecycleSink uint64
