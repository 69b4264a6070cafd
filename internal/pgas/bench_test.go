package pgas

import "testing"

// Host-side cost of the cache's hot operations on the paper geometry
// (64 KiB blocks of 4 KiB sub-blocks, write-back, 16 MiB cache): rank 1
// accesses memory homed on rank 0 of another node, one sub-block per
// operation. ns/op and B/op are host figures; none of these touch the
// simulated results.

const benchSub = 4 << 10

// benchCache runs body on rank 1 against nblocks blocks homed on rank 0.
func benchCache(b *testing.B, nblocks int, body func(l *Local, base Addr)) {
	cfg := Config{Policy: WriteBackLazy}
	testCluster(b, 2, 1, cfg, func(l *Local) {
		if l.Rank().ID() == 0 {
			shared[5] = l.AllocLocal(uint64(nblocks) * (64 << 10))
			l.Rank().Barrier()
			l.Rank().Barrier()
			return
		}
		l.Rank().Barrier()
		body(l, shared[5])
		l.Rank().Barrier()
	})
}

// BenchmarkPgasCheckoutHit: a Read checkout of one sub-block already in
// the cache, and its checkin.
func BenchmarkPgasCheckoutHit(b *testing.B) {
	b.ReportAllocs()
	benchCache(b, 1, func(l *Local, base Addr) {
		l.Checkout(base, benchSub, Read)
		l.Checkin(base, benchSub, Read)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			l.Checkout(base, benchSub, Read)
			l.Checkin(base, benchSub, Read)
		}
		b.StopTimer()
	})
}

// BenchmarkPgasCheckoutMiss: a Read checkout of one sub-block of a block
// this rank has never touched — a first-touch cache block, a one-sub-block
// fetch and the flush — and its checkin. Each engine run serves 64
// misses; building the next one is untimed.
func BenchmarkPgasCheckoutMiss(b *testing.B) {
	const perRun = 64
	b.ReportAllocs()
	b.StopTimer()
	for done := 0; done < b.N; done += perRun {
		n := min(perRun, b.N-done)
		benchCache(b, n, func(l *Local, base Addr) {
			b.StartTimer()
			for i := 0; i < n; i++ {
				g := base + Addr(i)*(64<<10)
				l.Checkout(g, benchSub, Read)
				l.Checkin(g, benchSub, Read)
			}
			b.StopTimer()
		})
	}
}

// BenchmarkPgasCheckin: a Write checkout of one cached sub-block and its
// checkin, which copies the view into the block and records it dirty.
// The checkout side is a table lookup, so the checkin dominates.
func BenchmarkPgasCheckin(b *testing.B) {
	b.ReportAllocs()
	benchCache(b, 1, func(l *Local, base Addr) {
		l.Checkout(base, benchSub, Write)
		l.Checkin(base, benchSub, Write)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			l.Checkout(base, benchSub, Write)
			l.Checkin(base, benchSub, Write)
		}
		b.StopTimer()
	})
}
