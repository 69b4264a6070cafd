package pgas

import (
	"testing"

	"ityr/internal/region"
)

func sharedCfg() Config {
	c := smallCfg(WriteBackLazy)
	c.SharedCache = true
	return c
}

func TestSharedCacheHitAcrossRanks(t *testing.T) {
	// Ranks 0,1 on node 0; rank 2 alone on node 1 is the home. Rank 0
	// fetches a region; rank 1's subsequent checkout must hit the shared
	// node cache without refetching.
	var fetchesAfterA, fetchesAfterB uint64
	testCluster(t, 3, 2, sharedCfg(), func(l *Local) {
		switch l.Rank().ID() {
		case 2:
			shared[0] = l.AllocLocal(512)
			v, err := l.Checkout(shared[0], 512, Write)
			if err != nil {
				t.Error(err)
			} else {
				for i := range v {
					v[i] = 9
				}
				l.Checkin(shared[0], 512, Write)
				l.ReleaseFence()
			}
			l.Rank().Barrier()
			l.Rank().Barrier() // wait for readers
		case 0:
			l.Rank().Barrier()
			if _, err := l.Checkout(shared[0], 512, Read); err != nil {
				t.Error(err)
			} else {
				l.Checkin(shared[0], 512, Read)
			}
			fetchesAfterA = l.Space().Stats.FetchOps
			l.Rank().Barrier()
		case 1:
			l.Rank().Barrier()
			// Run strictly after rank 0 by advancing past its access.
			l.Rank().Proc().Advance(1 << 20)
			v, err := l.Checkout(shared[0], 512, Read)
			if err != nil {
				t.Error(err)
			} else {
				if v[0] != 9 {
					t.Errorf("shared cache returned %d, want 9", v[0])
				}
				l.Checkin(shared[0], 512, Read)
			}
			fetchesAfterB = l.Space().Stats.FetchOps
			l.Rank().Barrier()
		}
	})
	if fetchesAfterA == 0 {
		t.Fatal("rank 0 never fetched")
	}
	if fetchesAfterB != fetchesAfterA {
		t.Fatalf("rank 1 refetched despite shared cache: %d -> %d", fetchesAfterA, fetchesAfterB)
	}
}

func TestPrivateCacheRefetchesAcrossRanks(t *testing.T) {
	// Same scenario without SharedCache: rank 1 must fetch again.
	var fetchesAfterA, fetchesAfterB uint64
	testCluster(t, 3, 2, smallCfg(WriteBackLazy), func(l *Local) {
		switch l.Rank().ID() {
		case 2:
			shared[0] = l.AllocLocal(512)
			v, _ := l.Checkout(shared[0], 512, Write)
			for i := range v {
				v[i] = 9
			}
			l.Checkin(shared[0], 512, Write)
			l.ReleaseFence()
			l.Rank().Barrier()
			l.Rank().Barrier()
		case 0:
			l.Rank().Barrier()
			l.Checkout(shared[0], 512, Read)
			l.Checkin(shared[0], 512, Read)
			fetchesAfterA = l.Space().Stats.FetchOps
			l.Rank().Barrier()
		case 1:
			l.Rank().Barrier()
			l.Rank().Proc().Advance(1 << 20)
			l.Checkout(shared[0], 512, Read)
			l.Checkin(shared[0], 512, Read)
			fetchesAfterB = l.Space().Stats.FetchOps
			l.Rank().Barrier()
		}
	})
	if fetchesAfterB <= fetchesAfterA {
		t.Fatalf("private caches should refetch: %d -> %d", fetchesAfterA, fetchesAfterB)
	}
}

func TestSharedCacheWriteReadRoundTrip(t *testing.T) {
	// A writer and a (later) reader on the same node, data homed remotely:
	// the reader must observe the write through the shared cache after the
	// writer's release and its own acquire.
	testCluster(t, 4, 2, sharedCfg(), func(l *Local) {
		switch l.Rank().ID() {
		case 2:
			shared[1] = l.AllocLocal(64)
			v, _ := l.Checkout(shared[1], 64, Write)
			v[0] = 0
			l.Checkin(shared[1], 64, Write)
			l.ReleaseFence()
			l.Rank().Barrier() // A: published
			l.Rank().Barrier() // B: done
		case 0:
			l.Rank().Barrier() // A
			v, _ := l.Checkout(shared[1], 64, ReadWrite)
			v[0] = 77
			l.Checkin(shared[1], 64, ReadWrite)
			l.ReleaseFence()
			l.Rank().Barrier() // B
		case 1:
			l.Rank().Barrier() // A
			l.Rank().Proc().Advance(1 << 20)
			l.AcquireFence()
			v, _ := l.Checkout(shared[1], 64, Read)
			if v[0] != 77 {
				t.Errorf("read %d through shared cache, want 77", v[0])
			}
			l.Checkin(shared[1], 64, Read)
			l.Rank().Barrier() // B
		default:
			l.Rank().Barrier()
			l.Rank().Barrier()
		}
	})
}

func TestSharedCachePrefetchValidOnlyOnceBytesLand(t *testing.T) {
	// Ranks 0,1 share node 0's cache; rank 2 on node 1 homes 8 blocks of
	// 7s. Rank 0 reads blocks 0 and 1, whose second miss prefetches
	// blocks 2 and 3. The prefetch's acquire loop charges virtual time,
	// and rank 1 polls the shared table inside it: the moment block 2
	// reads as valid, its bytes must already be the home's 7s.
	cfg := sharedCfg()
	cfg.PrefetchBlocks = 2
	const bs = 256
	var got byte
	var polled bool
	s := testCluster(t, 3, 2, cfg, func(l *Local) {
		switch l.Rank().ID() {
		case 2:
			shared[2] = l.AllocLocal(8 * bs)
			v, err := l.Checkout(shared[2], 8*bs, Write)
			if err != nil {
				t.Error(err)
			} else {
				for i := range v {
					v[i] = 7
				}
				l.Checkin(shared[2], 8*bs, Write)
				l.ReleaseFence()
			}
			l.Rank().Barrier()
			l.Rank().Barrier()
		case 0:
			l.Rank().Barrier()
			for b := Addr(0); b < 2; b++ {
				if _, err := l.Checkout(shared[2]+b*bs, bs, Read); err != nil {
					t.Error(err)
					continue
				}
				l.Checkin(shared[2]+b*bs, bs, Read)
			}
			l.Rank().Barrier()
		case 1:
			l.Rank().Barrier()
			g2 := shared[2] + 2*bs
			iv := region.Interval{Lo: uint64(g2), Hi: uint64(g2) + bs}
			for i := 0; i < 1<<20; i++ {
				if b := l.cache.Peek(int64(g2 / bs)); b != nil && b.Valid.Contains(iv) {
					polled = true
					break
				}
				l.Rank().Proc().Advance(1)
			}
			if v, err := l.Checkout(g2, bs, Read); err != nil {
				t.Error(err)
			} else {
				got = v[0]
				l.Checkin(g2, bs, Read)
			}
			l.Rank().Barrier()
		}
	})
	if !polled {
		t.Fatal("block 2 never became valid in the shared table")
	}
	if s.Batch.PrefetchOps == 0 {
		t.Fatal("rank 0's second miss did not prefetch")
	}
	if got != 7 {
		t.Fatalf("node-mate read %d from a prefetched block, want 7", got)
	}
}

func TestSharedCachePrefetchKeepsNodeMateWrite(t *testing.T) {
	// Same layout, but rank 1 writes 5s into block 2 as soon as rank 0's
	// prefetch has acquired it, while the acquire loop is still charging
	// time. The prefetch must stop before that block rather than land the
	// home's 7s over the node-mate's checked-in bytes.
	cfg := sharedCfg()
	cfg.PrefetchBlocks = 2
	const bs = 256
	var got byte
	var polled bool
	testCluster(t, 3, 2, cfg, func(l *Local) {
		switch l.Rank().ID() {
		case 2:
			shared[3] = l.AllocLocal(8 * bs)
			v, _ := l.Checkout(shared[3], 8*bs, Write)
			for i := range v {
				v[i] = 7
			}
			l.Checkin(shared[3], 8*bs, Write)
			l.ReleaseFence()
			l.Rank().Barrier()
			l.Rank().Barrier()
		case 0:
			l.Rank().Barrier()
			for b := Addr(0); b < 2; b++ {
				l.Checkout(shared[3]+b*bs, bs, Read)
				l.Checkin(shared[3]+b*bs, bs, Read)
			}
			l.Rank().Barrier()
		case 1:
			l.Rank().Barrier()
			g2 := shared[3] + 2*bs
			for i := 0; i < 1<<20; i++ {
				if l.cache.Peek(int64(g2/bs)) != nil {
					polled = true
					break
				}
				l.Rank().Proc().Advance(1)
			}
			v, _ := l.Checkout(g2, bs, Write)
			for i := range v {
				v[i] = 5
			}
			l.Checkin(g2, bs, Write)
			l.Rank().Barrier()
			v, _ = l.Checkout(g2, bs, Read)
			got = v[0]
			l.Checkin(g2, bs, Read)
		}
	})
	if !polled {
		t.Fatal("block 2 never entered the shared table")
	}
	if got != 5 {
		t.Fatalf("node-mate's write read back as %d after a prefetch, want 5", got)
	}
}
