package sim

import (
	"testing"
)

// BenchmarkSimEngine measures host-side event-kernel throughput. Each
// sub-benchmark drives one dispatch regime; all report events/sec of host
// wall-clock (one "event" = one Advance, Park/Wake pair, or callback).

// advance-fast: a lone process burning virtual time — the zero-handoff
// fast path (no queue traffic, no channel operations).
func BenchmarkSimEngineAdvanceFast(b *testing.B) {
	e := NewEngine()
	e.Spawn("p", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Advance(10)
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
}

// advance-self: Advance(0) in a loop — slow path through the event queue,
// but the popped resume belongs to the yielding process, so the handoff
// coalesces to zero channel operations.
func BenchmarkSimEngineAdvanceSelf(b *testing.B) {
	e := NewEngine()
	e.Spawn("p", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Advance(0)
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
}

// ping-pong: two processes striding in lockstep, so every Advance hands
// control to the other goroutine — the unavoidable-handoff worst case.
func BenchmarkSimEnginePingPong(b *testing.B) {
	e := NewEngine()
	for pi := 0; pi < 2; pi++ {
		e.Spawn("p", func(p *Proc) {
			for i := 0; i < b.N/2; i++ {
				p.Advance(10)
			}
		})
	}
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
}

// advance-loop: the ping-pong shape with one side sleeping through
// AdvanceLoop, so the kernel runs its steps inline on the other side's
// goroutine — the idle-scheduler regime, with no handoffs at all.
func BenchmarkSimEngineAdvanceLoop(b *testing.B) {
	e := NewEngine()
	e.Spawn("p", func(p *Proc) {
		for i := 0; i < b.N/2; i++ {
			p.Advance(10)
		}
	})
	e.Spawn("sleeper", func(p *Proc) {
		n := 0
		p.AdvanceLoop(10, func() (Time, bool) {
			n++
			return 10, n < b.N/2
		})
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
}

// park-wake: a producer/consumer pair exercising Park, Wake and the
// resulting same-instant resume events.
func BenchmarkSimEngineParkWake(b *testing.B) {
	e := NewEngine()
	var consumer *Proc
	consumer = e.Spawn("consumer", func(p *Proc) {
		for i := 0; i < b.N/2; i++ {
			p.Park()
		}
	})
	e.Spawn("producer", func(p *Proc) {
		for i := 0; i < b.N/2; i++ {
			p.Advance(5)
			consumer.Wake()
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
}

// callbacks: a self-rescheduling engine-context callback — pure queue
// push/pop/fire throughput with no processes at all.
func BenchmarkSimEngineCallbacks(b *testing.B) {
	e := NewEngine()
	n := 0
	var tick func()
	tick = func() {
		if n < b.N {
			n++
			e.After(10, tick)
		}
	}
	e.After(10, tick)
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkSimEngineMixed approximates the RMA layer's Advance profile:
// many short advances against a backdrop of occasionally-due events from
// other processes, the workload the fast path is aimed at.
func BenchmarkSimEngineMixed(b *testing.B) {
	e := NewEngine()
	e.Spawn("poller", func(p *Proc) {
		for i := 0; i < b.N/16; i++ {
			p.Advance(1000)
		}
	})
	e.Spawn("issuer", func(p *Proc) {
		for i := 0; i < b.N-b.N/16; i++ {
			p.Advance(50)
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
}
