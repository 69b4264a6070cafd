package uth

import (
	"testing"

	"ityr/internal/fault"
	"ityr/internal/netmodel"
	"ityr/internal/rma"
	"ityr/internal/sim"
)

// idleRegion runs a fork-join region over nranks ranks whose root thread
// computes for d without forking, so every other rank spends the whole
// region in failed steal attempts. With armed, an empty fault plan is
// armed: nothing is injected, but every deque CAS goes through the
// worker's own process, re-entering the idle loop after each attempt.
// start, if non-nil, runs just before the engine does. It returns the
// scheduler.
func idleRegion(tb testing.TB, nranks int, d sim.Time, armed bool, start func()) *Sched {
	e := sim.NewEngine()
	net := netmodel.Default(8)
	var in *fault.Injector
	if armed {
		in = fault.NewInjector(fault.Plan{Name: "empty"}, nranks)
		net.Perturb = in
	}
	c := rma.New(e, nranks, net)
	if in != nil {
		c.SetFaults(in)
	}
	s := NewSched(c, Config{Seed: 42}, nil)
	for i := 0; i < nranks; i++ {
		i := i
		r := c.Rank(i)
		e.Spawn("spmd", func(p *sim.Proc) {
			r.Attach(p)
			s.WorkerMain(i, func(tb *TB) { tb.Proc().Advance(d) })
		})
	}
	if start != nil {
		start()
	}
	if err := e.Run(); err != nil {
		tb.Fatal(err)
	}
	return s
}

// TestIdleStealZeroAllocs pins the idle path's allocation budget: a
// longer idle region makes thousands more failed steal attempts, ticks and
// backoff sleeps, and none of them may allocate. The armed variant
// re-enters the idle loop from the worker's process after every attempt,
// so it also catches a step bound anew on each entry instead of once per
// worker.
func TestIdleStealZeroAllocs(t *testing.T) {
	const short, long = 200 * sim.Microsecond, 2 * sim.Millisecond
	for _, armed := range []bool{false, true} {
		fs := idleRegion(t, 16, long, armed, nil).Stats.FailedSteals -
			idleRegion(t, 16, short, armed, nil).Stats.FailedSteals
		if fs < 1000 {
			t.Fatalf("armed=%v: only %d extra failed steals; the scenario no longer idles", armed, fs)
		}
		small := testing.AllocsPerRun(5, func() { idleRegion(t, 16, short, armed, nil) })
		big := testing.AllocsPerRun(5, func() { idleRegion(t, 16, long, armed, nil) })
		if per := (big - small) / float64(fs); per > 0.001 {
			t.Errorf("armed=%v: %.4f allocations per failed steal (short run %.1f, long run %.1f), want 0",
				armed, per, small, big)
		}
	}
}

// TestIdleLoopRunsInline checks where the idle loop's host time goes:
// while the machine idles, the kernel runs the workers' steps itself, so
// goroutine handoffs stay a small fraction of kernel events.
func TestIdleLoopRunsInline(t *testing.T) {
	st := idleRegion(t, 64, sim.Millisecond, false, nil).comm.Engine().Stats()
	if st.Events < 10000 {
		t.Fatalf("only %d events; the scenario no longer idles", st.Events)
	}
	if st.Handoffs*20 > st.Events {
		t.Errorf("%d handoffs for %d events: idle steps are not running inline", st.Handoffs, st.Events)
	}
}

// BenchmarkFailedSteal measures the host cost of one failed steal attempt
// (scheduler tick, deque CAS and backoff sleep) with 256 idle ranks, the
// regime that dominates large fork-join runs whose parallelism is short
// of the machine.
func BenchmarkFailedSteal(b *testing.B) {
	const ranks = 256
	// Idle ranks settle at one attempt per ~10.5µs (tick + CAS + the
	// 10µs backoff cap); size the region so there are ~b.N attempts.
	d := sim.Time(b.N)*10500/(ranks-1) + 50*sim.Microsecond
	s := idleRegion(b, ranks, d, false, b.ResetTimer)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(s.Stats.FailedSteals), "ns/failed-steal")
}
