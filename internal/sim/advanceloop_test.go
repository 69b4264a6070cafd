package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"
)

// AdvanceLoop's contract is that it is indistinguishable from the explicit
// loop `for { p.Advance(d); if d, ok = step(); !ok { return } }` in every
// simulated observable — clock, wake order, callback order — and in
// FastAdvances; only the goroutine that runs the step differs. These tests
// run each scenario both ways and compare.

// sleepLoop runs the AdvanceLoop contract either through the kernel
// primitive or as the explicit loop it must match.
func sleepLoop(p *Proc, inline bool, d Time, step func() (Time, bool)) {
	if inline {
		p.AdvanceLoop(d, step)
		return
	}
	for {
		p.Advance(d)
		var ok bool
		if d, ok = step(); !ok {
			return
		}
	}
}

// loopRun is the observable outcome of one scenario.
type loopRun struct {
	log    []string
	now    Time
	events uint64
	fast   uint64
}

// randomLoopScenario spawns sleepers that alternate AdvanceLoop phases
// (with random sleeps, including zero, random engine callbacks scheduled
// from inside the step, and time-scale flips) with blocking work of their
// own, next to busy processes striding through plain Advances.
func randomLoopScenario(t *testing.T, seed int64, inline bool) loopRun {
	t.Helper()
	e := NewEngine()
	var log []string
	note := func(p *Proc, what string) {
		log = append(log, fmt.Sprintf("%s %s@%d", p.Name, what, p.Now()))
	}
	for i := 0; i < 4; i++ {
		r := rand.New(rand.NewSource(seed*16 + int64(i)))
		e.Spawn(fmt.Sprintf("sleeper%d", i), func(p *Proc) {
			for round := 0; round < 6; round++ {
				n, k := r.Intn(25), 0
				step := func() (Time, bool) {
					note(p, "step")
					if k++; k > n {
						return 0, false
					}
					switch r.Intn(12) {
					case 0:
						at := Time(r.Intn(40))
						e.After(at, func() { log = append(log, fmt.Sprintf("cb@%d", e.Now())) })
					case 1:
						p.SetTimeScale(int64(1+r.Intn(3)), 1)
					case 2:
						p.SetTimeScale(0, 0)
					}
					return Time(r.Intn(60)), true
				}
				sleepLoop(p, inline, Time(r.Intn(60)), step)
				note(p, "back")
				p.Advance(Time(r.Intn(30)))
			}
		})
	}
	for i := 0; i < 2; i++ {
		r := rand.New(rand.NewSource(seed*16 + 8 + int64(i)))
		e.Spawn(fmt.Sprintf("busy%d", i), func(p *Proc) {
			for j := 0; j < 150; j++ {
				p.Advance(Time(r.Intn(25)))
				if j%10 == 0 {
					note(p, "tick")
				}
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	return loopRun{log: log, now: e.Now(), events: st.Events, fast: st.FastAdvances}
}

func TestAdvanceLoopMatchesExplicitLoop(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		want := randomLoopScenario(t, seed, false)
		got := randomLoopScenario(t, seed, true)
		if !reflect.DeepEqual(got.log, want.log) {
			t.Fatalf("seed %d: wake order differs (%d vs %d entries)", seed, len(got.log), len(want.log))
		}
		if got.now != want.now || got.events != want.events || got.fast != want.fast {
			t.Fatalf("seed %d: now/events/fast = %d/%d/%d, explicit loop %d/%d/%d",
				seed, got.now, got.events, got.fast, want.now, want.events, want.fast)
		}
	}
}

// TestAdvanceLoopZeroSteps checks that Advance(0) inside the loop still
// yields to same-instant events queued before it, step after step.
func TestAdvanceLoopZeroSteps(t *testing.T) {
	run := func(inline bool) []string {
		e := NewEngine()
		var order []string
		e.Spawn("p", func(p *Proc) {
			k := 0
			step := func() (Time, bool) {
				order = append(order, fmt.Sprintf("step%d@%d", k, p.Now()))
				if k++; k == 4 {
					return 0, false
				}
				e.After(0, func() { order = append(order, fmt.Sprintf("cb%d", k)) })
				return 0, true
			}
			e.After(0, func() { order = append(order, "cb0") })
			sleepLoop(p, inline, 0, step)
			order = append(order, "done")
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return order
	}
	want := []string{"cb0", "step0@0", "cb1", "step1@0", "cb2", "step2@0", "cb3", "step3@0", "done"}
	for _, inline := range []bool{false, true} {
		if got := run(inline); !reflect.DeepEqual(got, want) {
			t.Errorf("inline=%v: order = %v, want %v", inline, got, want)
		}
	}
}

// TestAdvanceLoopFinishesOnOtherGoroutine checks the handoff at the end of
// an inline loop: the step that returns false runs inside another
// process's Advance (on that process's goroutine), and the sleeper then
// resumes on its own goroutine at exactly the right instant.
func TestAdvanceLoopFinishesOnOtherGoroutine(t *testing.T) {
	e := NewEngine()
	inBusy := false
	var finishedInBusy bool
	var backAt Time
	e.Spawn("sleeper", func(p *Proc) {
		k := 0
		p.AdvanceLoop(100, func() (Time, bool) {
			if k++; k == 5 {
				finishedInBusy = inBusy
				return 0, false
			}
			return 100, true
		})
		backAt = p.Now()
	})
	e.Spawn("busy", func(p *Proc) {
		for i := 0; i < 100; i++ {
			inBusy = true
			p.Advance(30)
			inBusy = false
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !finishedInBusy {
		t.Error("the finishing step did not run inside the busy process's Advance")
	}
	if backAt != 500 {
		t.Errorf("sleeper resumed at %d, want 500", backAt)
	}
}

// TestAdvanceLoopTimeScaleFlip flips the sleeper's time scale from an
// engine callback in the middle of an inline loop: durations returned by
// later steps must be stretched, earlier ones not.
func TestAdvanceLoopTimeScaleFlip(t *testing.T) {
	run := func(inline bool) []Time {
		e := NewEngine()
		var at []Time
		sleeper := e.Spawn("sleeper", func(p *Proc) {
			k := 0
			sleepLoop(p, inline, 100, func() (Time, bool) {
				at = append(at, p.Now())
				if k++; k == 6 {
					return 0, false
				}
				return 100, true
			})
		})
		e.At(250, func() { sleeper.SetTimeScale(3, 1) })
		e.At(750, func() { sleeper.SetTimeScale(0, 0) })
		e.Spawn("busy", func(p *Proc) {
			for i := 0; i < 40; i++ {
				p.Advance(35)
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return at
	}
	want := []Time{100, 200, 300, 600, 900, 1000}
	for _, inline := range []bool{false, true} {
		if got := run(inline); !reflect.DeepEqual(got, want) {
			t.Errorf("inline=%v: step times %v, want %v", inline, got, want)
		}
	}
}

// TestAdvanceLoopNoHandoffsBesideBusyProc is the point of the primitive:
// a sleeper whose every wake-up interleaves with another process's
// Advances costs no baton transfers at all while it sleeps. On two
// shards with no pin held, both processes share shard 0 and run in
// parallel rounds, whose lane runs the step inline just the same. Stats
// is not safe to call mid-round, so there the whole run's handoffs are
// counted after Run: the few that start and finish the two processes.
func TestAdvanceLoopNoHandoffsBesideBusyProc(t *testing.T) {
	for _, shards := range []int{1, 2} {
		for _, inline := range []bool{false, true} {
			e := NewEngineShards(shards, 50)
			var h0, h1 uint64
			e.Spawn("sleeper", func(p *Proc) {
				k := 0
				sleepLoop(p, inline, 35, func() (Time, bool) {
					k++
					if k == 1 && shards == 1 {
						h0 = e.Stats().Handoffs
					}
					if k == 200 {
						if shards == 1 {
							h1 = e.Stats().Handoffs
						}
						return 0, false
					}
					return 35, true
				})
			})
			e.Spawn("busy", func(p *Proc) {
				for i := 0; i < 1000; i++ {
					p.Advance(10)
				}
			})
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			allowed := uint64(0)
			if shards > 1 {
				st := e.Stats()
				if st.Rounds == 0 {
					t.Fatalf("shards=%d: no parallel rounds ran, stats %+v", shards, st)
				}
				h1, allowed = st.Handoffs, 4
			}
			if inline && h1-h0 > allowed {
				t.Errorf("shards=%d: inline sleeper cost %d handoffs, want at most %d", shards, h1-h0, allowed)
			}
			if !inline && h1-h0 < 100 {
				t.Errorf("shards=%d: explicit loop cost only %d handoffs; the scenario no longer interleaves",
					shards, h1-h0)
			}
		}
	}
}

// TestAdvanceLoopSharded runs the contract on a sharded engine. The
// sleepers are spawned inside a pinned global phase, where the engine's
// lane runs their steps inline; the pin is released while their steps are
// pending, so the split hands the queued resumes to the shard lanes,
// which go on running the steps inline in parallel rounds. The
// per-process logs must match the explicit loop's on the serial engine.
func TestAdvanceLoopSharded(t *testing.T) {
	run := func(shards int, inline bool) loopRun {
		e := NewEngineShards(shards, 50)
		// One log per sleeper: shards append concurrently in a round.
		logs := make([][]string, 4)
		e.SpawnOn(0, "pinner", func(p *Proc) {
			p.Advance(100)
			p.PinGlobal()
			for i := 0; i < 4; i++ {
				i := i
				e.SpawnOn(i%shards, fmt.Sprintf("sleeper%d", i), func(p *Proc) {
					k := 0
					sleepLoop(p, inline, Time(70+i), func() (Time, bool) {
						logs[i] = append(logs[i], fmt.Sprintf("%s@%d", p.Name, p.Now()))
						if k++; k == 40 {
							return 0, false
						}
						return Time(60 + 7*i), true
					})
				})
			}
			for j := 0; j < 50; j++ {
				p.Advance(13)
			}
			p.UnpinGlobal()
			p.Advance(400)
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		var flat []string
		for _, l := range logs {
			flat = append(flat, l...)
		}
		return loopRun{log: flat, now: e.Now()}
	}
	want := run(1, false)
	for _, shards := range []int{1, 2} {
		for _, inline := range []bool{false, true} {
			got := run(shards, inline)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("shards=%d inline=%v: log/clock diverge from the serial explicit loop (now %d vs %d)",
					shards, inline, got.now, want.now)
			}
		}
	}
}

// TestProcSizeClass keeps the process record in the 96-byte allocation
// size class on 64-bit hosts: every forked thread allocates one, so a
// field that pushes it to the next class (112 bytes) costs measurable
// allocation volume on fork-heavy runs.
func TestProcSizeClass(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("size class pinned for 64-bit hosts")
	}
	if n := unsafe.Sizeof(Proc{}); n > 96 {
		t.Errorf("Proc is %d bytes, over the 96-byte size class", n)
	}
}
