package memblock

import (
	"bytes"
	"fmt"
	"testing"

	"ityr/internal/region"
)

func TestAcquireAssignsAndReuses(t *testing.T) {
	tb := NewTable(4, 64, 16, false)
	b1, ev, err := tb.Acquire(10)
	if err != nil || ev != nil {
		t.Fatalf("acquire: %v, evicted %v", err, ev)
	}
	if b1.ID != 10 || len(b1.pages) != 4 {
		t.Fatalf("block = %+v", b1)
	}
	b2, _, err := tb.Acquire(10)
	if err != nil || b2 != b1 {
		t.Fatalf("second acquire returned different block")
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	tb := NewTable(2, 64, 16, false)
	a, _, _ := tb.Acquire(1)
	b, _, _ := tb.Acquire(2)
	tb.Lookup(1) // touch 1: now 2 is LRU
	c, ev, err := tb.Acquire(3)
	if err != nil {
		t.Fatal(err)
	}
	if ev != b {
		t.Fatalf("evicted %v, want block for id 2", ev)
	}
	if c.ID != 3 || tb.Peek(2) != nil || tb.Peek(1) != a {
		t.Fatal("table state wrong after eviction")
	}
	if tb.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", tb.Evictions)
	}
}

func TestPinnedBlocksNotEvicted(t *testing.T) {
	tb := NewTable(2, 64, 16, false)
	a, _, _ := tb.Acquire(1)
	b, _, _ := tb.Acquire(2)
	a.Ref++ // pin the LRU block
	c, ev, err := tb.Acquire(3)
	if err != nil {
		t.Fatal(err)
	}
	if ev != b || c.ID != 3 {
		t.Fatalf("evicted %+v, want unpinned block 2", ev)
	}
}

func TestAllPinnedReturnsTooMuchCheckout(t *testing.T) {
	tb := NewTable(2, 64, 16, false)
	a, _, _ := tb.Acquire(1)
	b, _, _ := tb.Acquire(2)
	a.Ref++
	b.Ref++
	if _, _, err := tb.Acquire(3); err != ErrTooMuchCheckout {
		t.Fatalf("err = %v, want ErrTooMuchCheckout", err)
	}
}

func TestDirtyBlocksNotEvictable(t *testing.T) {
	tb := NewTable(2, 64, 16, false)
	a, _, _ := tb.Acquire(1)
	b, _, _ := tb.Acquire(2)
	a.Dirty.Add(region.Interval{Lo: 0, Hi: 8})
	b.Dirty.Add(region.Interval{Lo: 0, Hi: 8})
	if _, _, err := tb.Acquire(3); err != ErrNoEvictable {
		t.Fatalf("err = %v, want ErrNoEvictable", err)
	}
	// After "writing back" (clearing dirty), acquisition succeeds.
	a.Dirty.Clear()
	b.Dirty.Clear()
	if _, _, err := tb.Acquire(3); err != nil {
		t.Fatalf("acquire after writeback: %v", err)
	}
}

func TestMappedAccounting(t *testing.T) {
	tb := NewTable(3, 64, 16, false)
	a, _, _ := tb.Acquire(1)
	if !tb.SetMapped(a, true) {
		t.Fatal("first map should report a change")
	}
	if tb.SetMapped(a, true) {
		t.Fatal("re-map of mapped block should be a no-op")
	}
	if tb.MappedCount() != 1 {
		t.Fatalf("mapped = %d, want 1", tb.MappedCount())
	}
	tb.SetMapped(a, false)
	if tb.MappedCount() != 0 {
		t.Fatalf("mapped = %d, want 0", tb.MappedCount())
	}
}

func TestEvictionClearsMapping(t *testing.T) {
	tb := NewTable(1, 64, 16, false)
	a, _, _ := tb.Acquire(1)
	tb.SetMapped(a, true)
	_, ev, err := tb.Acquire(2)
	if err != nil {
		t.Fatal(err)
	}
	if ev == nil || ev.Mapped || tb.MappedCount() != 0 {
		t.Fatalf("eviction did not unmap: evicted=%v mapped=%d", ev, tb.MappedCount())
	}
}

func TestAcquireClearsStaleState(t *testing.T) {
	tb := NewTable(1, 64, 16, false)
	a, _, _ := tb.Acquire(1)
	a.Valid.Add(region.Interval{Lo: 0, Hi: 64})
	a.WriteAt([]byte{0xFF}, 0)
	b, ev, err := tb.Acquire(2)
	if err != nil || ev == nil {
		t.Fatalf("acquire: %v", err)
	}
	if !b.Valid.Empty() || !b.Dirty.Empty() || b.Ref != 0 {
		t.Fatal("reused block carries stale metadata")
	}
}

func TestInvalidateAll(t *testing.T) {
	tb := NewTable(4, 64, 16, false)
	for id := int64(0); id < 4; id++ {
		b, _, _ := tb.Acquire(id)
		b.Valid.Add(region.Interval{Lo: uint64(id) * 64, Hi: uint64(id)*64 + 64})
	}
	tb.InvalidateAll()
	tb.ForEach(func(b *Block) {
		if !b.Valid.Empty() {
			t.Fatalf("block %d still valid after invalidate", b.ID)
		}
	})
}

func TestDirtyBlocksListing(t *testing.T) {
	tb := NewTable(4, 64, 16, false)
	b0, _, _ := tb.Acquire(0)
	tb.Acquire(1)
	b2, _, _ := tb.Acquire(2)
	b0.Dirty.Add(region.Interval{Lo: 0, Hi: 4})
	b2.Dirty.Add(region.Interval{Lo: 128, Hi: 132})
	d := tb.DirtyBlocks()
	if len(d) != 2 {
		t.Fatalf("dirty blocks = %d, want 2", len(d))
	}
}

func TestLazyAllocation(t *testing.T) {
	tb := NewTable(1000000, 65536, 4096, false) // 64 GB if eagerly allocated
	tb.Acquire(42)
	if tb.allocated != 1 {
		t.Fatalf("allocated = %d, want 1", tb.allocated)
	}
}

func TestHomeTableHasNoBacking(t *testing.T) {
	tb := NewTable(2, 64, 16, true)
	b, _, _ := tb.Acquire(7)
	if b.pages != nil {
		t.Fatal("home table must not allocate backing storage")
	}
}

// touchedPages counts the pages of b allocated so far.
func touchedPages(b *Block) int {
	n := 0
	for _, p := range b.pages {
		if p != nil {
			n++
		}
	}
	return n
}

func TestOneSubBlockTouchHoldsOnePage(t *testing.T) {
	tb := NewTable(2, 65536, 4096, false)
	b, _, _ := tb.Acquire(3)
	if n := touchedPages(b); n != 0 {
		t.Fatalf("fresh block holds %d pages, want 0", n)
	}
	b.WriteAt([]byte{1, 2, 3}, 5*4096+100)
	got := make([]byte, 3)
	b.ReadAt(got, 5*4096+100)
	if n := touchedPages(b); n != 1 || b.pages[5] == nil {
		t.Fatalf("block touched in sub-block 5 holds %d pages, want exactly page 5", n)
	}
	if !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("read back %v", got)
	}
	if s := b.Span(nil, 5*4096, 4096); len(s) != 1 || len(s[0]) != 4096 || touchedPages(b) != 1 {
		t.Fatalf("span of one sub-block = %d slices, %d pages", len(s), touchedPages(b))
	}
}

func TestAccessCrossesPageBoundaries(t *testing.T) {
	tb := NewTable(1, 64, 16, false)
	b, _, _ := tb.Acquire(0)
	src := make([]byte, 40)
	for i := range src {
		src[i] = byte(i + 1)
	}
	b.WriteAt(src, 10) // [10, 50): pages 0..3
	if n := touchedPages(b); n != 4 {
		t.Fatalf("write over [10,50) touched %d pages, want 4", n)
	}
	got := make([]byte, 40)
	b.ReadAt(got, 10)
	if !bytes.Equal(got, src) {
		t.Fatalf("read %v, want %v", got, src)
	}
	// Span splits at page boundaries and aliases the storage.
	span := b.Span(nil, 10, 40)
	var lens []int
	for _, p := range span {
		lens = append(lens, len(p))
	}
	if fmt.Sprint(lens) != "[6 16 16 2]" {
		t.Fatalf("span lengths %v, want [6 16 16 2]", lens)
	}
	span[1][0] = 0xEE // byte 16
	one := make([]byte, 1)
	b.ReadAt(one, 16)
	if one[0] != 0xEE {
		t.Fatal("span slices do not alias the block's pages")
	}
	// An unaligned read straddling two pages sees both sides.
	two := make([]byte, 2)
	b.ReadAt(two, 31)
	if two[0] != src[21] || two[1] != src[22] {
		t.Fatalf("straddling read = %v, want %v", two, src[21:23])
	}
}

func TestWholeBlockSubBlockIsOnePage(t *testing.T) {
	tb := NewTable(1, 4096, 4096, false)
	b, _, _ := tb.Acquire(0)
	if len(b.pages) != 1 {
		t.Fatalf("page table has %d entries, want 1", len(b.pages))
	}
	b.WriteAt([]byte{9}, 4095)
	if s := b.Span(nil, 0, 4096); len(s) != 1 || len(s[0]) != 4096 || s[0][4095] != 9 {
		t.Fatal("whole-block span is not the single page")
	}
}

func TestRecycledBlockKeepsPagesNotValidity(t *testing.T) {
	tb := NewTable(1, 64, 16, false)
	a, _, _ := tb.Acquire(1)
	a.WriteAt(bytes.Repeat([]byte{0xAB}, 64), 0)
	a.Valid.Add(region.Interval{Lo: 64, Hi: 128})
	b, ev, err := tb.Acquire(2)
	if err != nil || ev != a || b != a {
		t.Fatalf("acquire: %v, evicted %v", err, ev)
	}
	// The storage is reused without zeroing, but nothing of it is valid
	// for the new identity: every byte a checkout reads must be fetched.
	if touchedPages(b) != 4 {
		t.Fatalf("recycled block holds %d pages, want its 4", touchedPages(b))
	}
	if _, ok := b.Valid.FirstMissing(region.Interval{Lo: 128, Hi: 192}); !ok || !b.Valid.Empty() {
		t.Fatal("recycled block claims valid bytes")
	}
}
