package rma

import (
	"bytes"
	"fmt"
	"testing"

	"ityr/internal/fault"
	"ityr/internal/netmodel"
	"ityr/internal/sim"
)

// getVOutcome is what one read of a 300-byte payload from rank 1 looks
// like to rank 0: the landed bytes (concatenated), rank 0's clock after the
// flush, the window segment it read, and the traffic counters.
type getVOutcome struct {
	got   []byte
	done  sim.Time
	seg   []byte
	stats Stats
	sdc   SdcWireStats
}

// splitLens are the destination slice lengths of the vectored reads: an
// empty slice and unequal pieces, 300 bytes in all.
var splitLens = []int{7, 0, 100, 19, 19, 155}

// readPayload has rank 0 read 300 bytes at offset 5 of rank 1's segment,
// either with one Get into a contiguous buffer or with one GetV into
// splitLens slices, under an optional fault plan and SDC checksum.
func readPayload(t *testing.T, vectored bool, plan *fault.Plan, replays int) getVOutcome {
	t.Helper()
	e := sim.NewEngine()
	c := New(e, 2, netmodel.Default(2))
	if plan != nil {
		c.SetFaults(fault.NewInjector(*plan, 2))
		c.SetSDCVerify(replays)
	}
	w := c.NewUniformWin(1 << 10)
	for i := range w.Seg(1) {
		w.Seg(1)[i] = byte(i*7 + 3)
	}
	var out getVOutcome
	for i := 0; i < 2; i++ {
		r := c.Rank(i)
		e.Spawn("rank", func(p *sim.Proc) {
			r.Attach(p)
			if r.ID() != 0 {
				return
			}
			if !vectored {
				out.got = make([]byte, 300)
				w.Get(r, 1, 5, out.got)
				r.Flush()
				out.done = p.Now()
				return
			}
			var dst [][]byte
			for _, n := range splitLens {
				dst = append(dst, make([]byte, n))
			}
			w.GetV(r, 1, 5, dst)
			r.Flush()
			out.done = p.Now()
			for _, d := range dst {
				out.got = append(out.got, d...)
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	out.seg = w.Seg(1)[5:305]
	out.stats = c.Stats()
	out.sdc = c.SdcWire()
	return out
}

func TestGetVMatchesContiguousGet(t *testing.T) {
	one := readPayload(t, false, nil, 0)
	vec := readPayload(t, true, nil, 0)
	if !bytes.Equal(one.got, one.seg) || !bytes.Equal(vec.got, one.got) {
		t.Fatal("GetV landed different bytes than Get")
	}
	if vec.done != one.done {
		t.Fatalf("GetV completed at %v, Get at %v", vec.done, one.done)
	}
	if vec.stats != one.stats || vec.stats.GetOps != 1 || vec.stats.GetBytes != 300 {
		t.Fatalf("GetV stats %+v, Get stats %+v; want one 300-byte op", vec.stats, one.stats)
	}
}

func TestGetVWireCorruption(t *testing.T) {
	// Every transfer is corrupted until each rank's one-flip budget is
	// spent. Without the checksum the single flip lands silently, and it
	// must land on the same payload bit as in a contiguous Get, in
	// whichever slice holds that bit.
	plan := fault.Plan{Name: "wire", Seed: 11, Corrupt: fault.Corruption{WireProb: 1, MaxFlips: 1}}
	for _, seed := range []int64{11, 12, 13, 14} {
		plan.Seed = seed
		one := readPayload(t, false, &plan, 0)
		vec := readPayload(t, true, &plan, 0)
		if one.sdc.Escapes != 1 || vec.sdc != one.sdc {
			t.Fatalf("seed %d: sdc stats Get %+v, GetV %+v; want one escape each", seed, one.sdc, vec.sdc)
		}
		diff := 0
		for i := range one.got {
			if one.got[i] != one.seg[i] {
				diff++
			}
		}
		if diff != 1 || !bytes.Equal(vec.got, one.got) {
			t.Fatalf("seed %d: GetV and Get landed different flips (Get changed %d bytes)", seed, diff)
		}
		if vec.done != one.done {
			t.Fatalf("seed %d: GetV completed at %v, Get at %v", seed, vec.done, one.done)
		}
	}
	// With the checksum armed the flip is detected and the retransmit
	// restores every slice from the segment.
	one := readPayload(t, false, &plan, 2)
	vec := readPayload(t, true, &plan, 2)
	if vec.sdc.Detected != 1 || vec.sdc.Retrans != 1 || vec.sdc != one.sdc {
		t.Fatalf("sdc stats Get %+v, GetV %+v; want one detect and retransmit", one.sdc, vec.sdc)
	}
	if !bytes.Equal(vec.got, vec.seg) {
		t.Fatal("retransmission did not restore every slice")
	}
	if vec.done != one.done {
		t.Fatalf("GetV completed at %v, Get at %v", vec.done, one.done)
	}
}

func TestFlipBitFindsItsSlice(t *testing.T) {
	dst := [][]byte{make([]byte, 2), nil, make([]byte, 3)}
	for bit := uint64(0); bit < 40; bit++ {
		flipBit(dst, bit)
		var flat []byte
		for _, d := range dst {
			flat = append(flat, d...)
		}
		want := make([]byte, 5)
		want[bit>>3] = 1 << (bit & 7)
		if fmt.Sprint(flat) != fmt.Sprint(want) {
			t.Fatalf("bit %d: slices %v, want %v", bit, flat, want)
		}
		flipBit(dst, bit)
	}
}
