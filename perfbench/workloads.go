package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"ityr"
	"ityr/internal/apps/cilksort"
	"ityr/internal/apps/halo"
	"ityr/internal/apps/uts"
	"ityr/internal/metrics"
	"ityr/internal/prof"
	"ityr/internal/profile"
	"ityr/internal/sim"
	"ityr/internal/trace"
)

// app selects which application a workload drives.
type app int

const (
	appCilksort app = iota
	appUTS
	appHalo
)

// workload is one named input of the benchmark. README.md says why each
// was chosen and which layers it loads.
type workload struct {
	name  string
	app   app
	ranks int
	cores int // cores per simulated node

	n, cutoff int64    // cilksort: elements and serial cutoff
	tree      uts.Tree // uts: the tree, built untimed, then traversed
	cells     int      // halo: mean cells per rank (the seed shifts it by -4..+3)
	steps     int      // halo: stencil iterations
}

var workloads = []workload{
	{name: "cilksort-1728", app: appCilksort, ranks: 1728, cores: 8, n: 1 << 20, cutoff: 16 << 10},
	{name: "uts-64", app: appUTS, ranks: 64, cores: 8, tree: uts.T1LPrime},
	{name: "halo-4096", app: appHalo, ranks: 4096, cores: 8, cells: 256, steps: 10},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (valid: %v)", name, names)
}

// haloCells is the block size a halo run uses at seed. halo.Run takes no
// seed and fixes its initial condition, so the seed varies the one input
// the app exposes: the block size, from mean-4 to mean+3 cells.
func (w workload) haloCells(seed int64) int {
	return w.cells - 4 + int(uint64(seed)%8)
}

// runtimeConfig is the paper-figure runtime configuration of
// internal/bench: lazy write-back, 64 KiB blocks of 4 KiB sub-blocks, a
// 16 MiB cache, write-back coalescing, 2-block prefetch, child-first
// stealing, on the serial engine.
func (w workload) runtimeConfig(seed int64, traced bool) ityr.Config {
	return ityr.Config{
		Ranks:        w.ranks,
		CoresPerNode: w.cores,
		HostProcs:    1,
		Pgas: ityr.PgasConfig{
			BlockSize:         64 << 10,
			SubBlockSize:      4 << 10,
			CacheSize:         16 << 20,
			Policy:            ityr.WriteBackLazy,
			CoalesceWriteBack: true,
			PrefetchBlocks:    2,
		},
		Sched:   ityr.SchedConfig{Policy: ityr.ChildFirst},
		Seed:    seed,
		Trace:   traced,
		Profile: traced,
	}
}

// repOpts parameterizes one repetition.
type repOpts struct {
	id      int
	input   int   // which of the run's inputs
	seed    int64 // that input's seed
	traced  bool  // Config.Trace and Config.Profile (halo exposes only Profile)
	cpuProf bool  // record a host CPU profile of the measured phase
	corrupt bool  // damage the output before verification (negative control)
}

// span is one benchmark phase, recorded from the benchmark's side of the
// call into the program. Host times are seconds since the process's start
// and simulated times are virtual nanoseconds on rank 0.
type span struct {
	Run       int     `json:"run"`
	Name      string  `json:"name"`
	Parent    string  `json:"parent"`
	HostStart float64 `json:"host_start_s"`
	HostEnd   float64 `json:"host_end_s"`
	SimStart  int64   `json:"sim_start_ns"`
	SimEnd    int64   `json:"sim_end_ns"`
}

func (s span) seconds() float64 { return s.HostEnd - s.HostStart }

// setupSpans are the phases whose host time setup_s sums.
var setupSpans = map[string]bool{"new_runtime": true, "alloc": true, "input": true}

// rep is what one repetition measured. Counter and histogram deltas cover
// the measured phase only.
type rep struct {
	id     int
	input  int
	traced bool
	ok     bool
	bad    string // why verification failed
	spans  []span

	simNs     int64
	counters  map[string]uint64
	hists     map[string]metrics.HistogramSnapshot
	profNs    map[string]int64 // Fig 9 profiler categories
	computeNs int64            // the app's own compute, virtual ns summed over ranks
	stealNs   int64            // steal attempts, virtual ns summed over ranks (traced only)
	idleNs    int64            // idle backoff between attempts, likewise

	allocBytes, mallocs, gcCycles uint64
	heapBytes                     uint64 // live heap after setup and a GC
	checkoutNs                    []int64
	cpuProfile                    []byte // gzipped pprof of the measured phase
}

func (r *rep) spanSeconds(name string) float64 {
	var s float64
	for _, sp := range r.spans {
		if sp.Name == name {
			s += sp.seconds()
		}
	}
	return s
}

func (r *rep) setupSeconds() float64 {
	var s float64
	for _, sp := range r.spans {
		if setupSpans[sp.Name] {
			s += sp.seconds()
		}
	}
	return s
}

func (r *rep) hostSeconds() float64 { return r.spanSeconds("measure") }

// recorder records spans for one repetition. Only rank 0 records; the
// engine is serial, so no locking is needed. With cpu set, it also
// profiles host CPU for the duration of the "measure" span.
type recorder struct {
	run   int
	spans []span
	open  *span
	cpu   *bytes.Buffer
}

func newRecorder(o repOpts) *recorder {
	rc := &recorder{run: o.id}
	if o.cpuProf {
		rc.cpu = new(bytes.Buffer)
	}
	return rc
}

var processStart = time.Now()

func hostNow() float64 { return time.Since(processStart).Seconds() }

func (rc *recorder) begin(name, parent string, simNow sim.Time) {
	if name == "measure" && rc.cpu != nil {
		if err := pprof.StartCPUProfile(rc.cpu); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: cpu profile:", err)
			rc.cpu = nil
		}
	}
	rc.open = &span{Run: rc.run, Name: name, Parent: parent, HostStart: hostNow(), SimStart: int64(simNow)}
}

func (rc *recorder) end(simNow sim.Time) {
	rc.open.HostEnd = hostNow()
	if rc.open.Name == "measure" && rc.cpu != nil {
		pprof.StopCPUProfile()
	}
	rc.open.SimEnd = int64(simNow)
	rc.spans = append(rc.spans, *rc.open)
	rc.open = nil
}

func (rc *recorder) profile() []byte {
	if rc.cpu == nil {
		return nil
	}
	return rc.cpu.Bytes()
}

// snapshot is every layer's cumulative state at a phase boundary.
type snapshot struct {
	sim    sim.Time
	m      metrics.Snapshot
	prof   map[string]int64
	rollup profile.Rollup // zero unless the streaming profile is on
	mem    runtime.MemStats
}

// profCategories are the Fig 9 runtime categories plus cilksort's own.
var profCategories = []string{
	prof.CatGet, prof.CatPut, prof.CatCheckout, prof.CatCheckin, prof.CatRelease,
	prof.CatLazyRelease, prof.CatAcquire, prof.CatSteal,
	cilksort.CatQuicksort, cilksort.CatMerge,
}

func takeSnapshot(rt *ityr.Runtime, now sim.Time) snapshot {
	s := snapshot{sim: now, m: rt.MetricsSnapshot(), prof: make(map[string]int64)}
	for _, c := range profCategories {
		s.prof[c] = int64(rt.Profiler().Total(c))
	}
	if p := rt.Profile(); p != nil {
		s.rollup = p.Snapshot().Rollup
	}
	runtime.ReadMemStats(&s.mem)
	return s
}

// measured fills r's measured-phase deltas from the snapshots around it.
func (r *rep) measured(a, b snapshot) {
	r.simNs = int64(b.sim - a.sim)
	r.counters = make(map[string]uint64)
	for k, v := range b.m.Counters {
		r.counters[k] = v - a.m.Counters[k]
	}
	r.hists = make(map[string]metrics.HistogramSnapshot)
	for k, h := range b.m.Histograms {
		d := h
		d.Counts = append([]uint64(nil), h.Counts...)
		if ha, ok := a.m.Histograms[k]; ok {
			for i := range d.Counts {
				d.Counts[i] -= ha.Counts[i]
			}
			d.Count -= ha.Count
			d.Sum -= ha.Sum
		}
		r.hists[k] = d
	}
	r.profNs = make(map[string]int64)
	for k, v := range b.prof {
		r.profNs[k] = v - a.prof[k]
	}
	r.stealNs = int64(b.rollup.StealNs - a.rollup.StealNs)
	r.idleNs = int64(b.rollup.IdleNs - a.rollup.IdleNs)
	r.allocBytes = b.mem.TotalAlloc - a.mem.TotalAlloc
	r.mallocs = b.mem.Mallocs - a.mem.Mallocs
	r.gcCycles = uint64(b.mem.NumGC - a.mem.NumGC)
}

// settle collects garbage and records the live heap, so the measured phase
// starts from the same heap state on every repetition.
func (r *rep) settle() {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	r.heapBytes = m.HeapAlloc
}

// checkouts collects the durations of the KCheckout spans that started
// inside [t0, t1). The trace ring is unbounded (TraceRing 0), so none
// are dropped.
func (r *rep) checkouts(rt *ityr.Runtime, t0, t1 sim.Time) {
	tl := rt.Trace()
	if tl == nil {
		return
	}
	for _, ev := range tl.Events() {
		if ev.Kind == trace.KCheckout && ev.T >= t0 && ev.T < t1 {
			r.checkoutNs = append(r.checkoutNs, int64(ev.Dur))
		}
	}
}

// runRep executes one repetition of w: set-up, the measured phase and
// verification.
func runRep(w workload, o repOpts) (*rep, error) {
	// Start every repetition from a collected heap, so the previous one's
	// garbage is not charged to this one's set-up.
	runtime.GC()
	switch w.app {
	case appCilksort:
		return runCilksort(w, o)
	case appUTS:
		return runUTS(w, o)
	default:
		return runHalo(w, o)
	}
}

func newRuntime(rc *recorder, cfg ityr.Config) *ityr.Runtime {
	rc.begin("new_runtime", "setup", 0)
	rt := ityr.NewRuntime(cfg)
	rc.end(0)
	return rt
}

func runCilksort(w workload, o repOpts) (*rep, error) {
	r := &rep{id: o.id, input: o.input, traced: o.traced}
	rc := newRecorder(o)
	rt := newRuntime(rc, w.runtimeConfig(o.seed, o.traced))
	var before, after snapshot
	var inSum, outSum int64
	sorted := false
	// The alloc span also covers launching the SPMD region (one simulated
	// process per rank), which happens inside Run before rank 0 starts.
	rc.begin("alloc", "setup", 0)
	err := rt.Run(func(s *ityr.SPMD) {
		root := s.Rank() == 0
		var a, b ityr.GSpan[cilksort.Elem]
		if root {
			a = ityr.AllocArraySPMD[cilksort.Elem](s, w.n, ityr.BlockCyclicDist)
			b = ityr.AllocArraySPMD[cilksort.Elem](s, w.n, ityr.BlockCyclicDist)
		}
		s.Barrier()
		if root {
			rc.end(s.Now())
			rc.begin("input", "setup", s.Now())
		}
		s.RootExec(func(c *ityr.Ctx) { cilksort.Generate(c, a, uint64(o.seed)) })
		if root {
			rc.end(s.Now())
			rc.begin("verify", "run", s.Now())
		}
		s.RootExec(func(c *ityr.Ctx) { inSum = cilksort.Checksum(c, a) })
		s.Barrier()
		if root {
			rc.end(s.Now())
			r.settle()
			before = takeSnapshot(rt, s.Now())
			rc.begin("measure", "run", s.Now())
		}
		s.RootExec(func(c *ityr.Ctx) { cilksort.Sort(c, a, b, w.cutoff) })
		if root {
			rc.end(s.Now())
			after = takeSnapshot(rt, s.Now())
		}
		if o.corrupt {
			s.RootExec(func(c *ityr.Ctx) {
				v := ityr.Checkout(c, a.Slice(0, 1), ityr.ReadWrite)
				v[0]++
				ityr.Checkin(c, a.Slice(0, 1), ityr.ReadWrite)
			})
		}
		if root {
			rc.begin("verify", "run", s.Now())
		}
		s.RootExec(func(c *ityr.Ctx) {
			sorted = cilksort.IsSorted(c, a)
			outSum = cilksort.Checksum(c, a)
		})
		if root {
			rc.end(s.Now())
		}
	})
	if err != nil {
		return nil, fmt.Errorf("cilksort: %w", err)
	}
	r.spans = rc.spans
	r.cpuProfile = rc.profile()
	r.measured(before, after)
	r.computeNs = r.profNs[cilksort.CatQuicksort] + r.profNs[cilksort.CatMerge]
	r.checkouts(rt, before.sim, after.sim)
	switch {
	case !sorted:
		r.bad = "output is not sorted"
	case outSum != inSum:
		r.bad = fmt.Sprintf("output checksum %d != input checksum %d", outSum, inSum)
	default:
		r.ok = true
	}
	return r, nil
}

// utsCount caches uts.CountHost per tree: the host-side oracle the
// traversal count must match.
var utsCount sync.Map

func utsExpected(t uts.Tree) int64 {
	if v, ok := utsCount.Load(t); ok {
		return v.(int64)
	}
	n := uts.CountHost(t)
	utsCount.Store(t, n)
	return n
}

func runUTS(w workload, o repOpts) (*rep, error) {
	r := &rep{id: o.id, input: o.input, traced: o.traced}
	rc := newRecorder(o)
	rt := newRuntime(rc, w.runtimeConfig(o.seed, o.traced))
	var before, after snapshot
	var nodes int64
	rc.begin("input", "setup", 0) // includes launching the SPMD region
	err := rt.Run(func(s *ityr.SPMD) {
		root := s.Rank() == 0
		var tree ityr.GPtr[uts.Node]
		s.RootExec(func(c *ityr.Ctx) { tree, _ = uts.Build(c, w.tree) })
		s.Barrier()
		if root {
			rc.end(s.Now())
			r.settle()
			before = takeSnapshot(rt, s.Now())
			rc.begin("measure", "run", s.Now())
		}
		s.RootExec(func(c *ityr.Ctx) { nodes = uts.Traverse(c, tree) })
		if root {
			rc.end(s.Now())
			after = takeSnapshot(rt, s.Now())
		}
	})
	if err != nil {
		return nil, fmt.Errorf("uts: %w", err)
	}
	r.cpuProfile = rc.profile()
	r.measured(before, after)
	r.computeNs = int64(uts.SerialTraversalTime(nodes))
	r.checkouts(rt, before.sim, after.sim)
	if o.corrupt {
		nodes++
	}
	rc.begin("verify", "run", after.sim)
	want := utsExpected(w.tree)
	rc.end(after.sim)
	r.spans = rc.spans
	if nodes != want {
		r.bad = fmt.Sprintf("traversal counted %d nodes, host count is %d", nodes, want)
	} else {
		r.ok = true
	}
	return r, nil
}

// haloTolerance bounds both the relative drift of total mass and the
// largest absolute cell difference from the serial baseline.
const haloTolerance = 1e-9

// haloCellCost is the virtual compute cost per cell per step (halo's
// documented default, set explicitly so app.sim_compute_ms is exact).
const haloCellCost = 2 * sim.Nanosecond

// haloSerial is the plain single-threaded Go run of the halo stencil: the
// same initial condition and update rule on one array, no runtime.
func haloSerial(ranks, cells, steps int) (state []float64, initialMass float64) {
	n := ranks * cells
	cur := make([]float64, n)
	for r := 0; r < ranks; r++ {
		x := uint64(r)*0x9E3779B97F4A7C15 + 1
		for i := 0; i < cells; i++ {
			x += 0x9E3779B97F4A7C15
			z := (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
			z = (z ^ (z >> 27)) * 0x94D049BB133111EB
			cur[r*cells+i] = float64(z>>11) / (1 << 53)
		}
	}
	for _, v := range cur {
		initialMass += v
	}
	next := make([]float64, n)
	for s := 0; s < steps; s++ {
		for i := range cur {
			next[i] = 0.25*cur[(i+n-1)%n] + 0.5*cur[i] + 0.25*cur[(i+1)%n]
		}
		cur, next = next, cur
	}
	return cur, initialMass
}

func runHalo(w workload, o repOpts) (*rep, error) {
	r := &rep{id: o.id, input: o.input, traced: o.traced}
	rc := newRecorder(o)
	cells := w.haloCells(o.seed)
	var rt *ityr.Runtime
	var before snapshot
	rc.begin("new_runtime", "setup", 0)
	res, err := halo.Run(halo.Config{
		Ranks:        w.ranks,
		CoresPerNode: w.cores,
		CellsPerRank: cells,
		Steps:        w.steps,
		HostProcs:    1,
		CellCost:     haloCellCost,
		Profile:      o.traced,
		Observe: func(x *ityr.Runtime) {
			rc.end(0)
			rt = x
			r.settle()
			before = takeSnapshot(rt, 0)
			rc.begin("measure", "run", 0)
		},
	})
	if err != nil {
		return nil, fmt.Errorf("halo: %w", err)
	}
	rc.end(res.Elapsed)
	// halo.Run owns its runtime: the snapshot before the run reads all
	// zero, so these deltas are whole-run counters.
	after := takeSnapshot(rt, res.Elapsed)
	r.cpuProfile = rc.profile()
	r.measured(before, after)
	r.computeNs = int64(w.ranks) * int64(cells) * int64(w.steps) * int64(haloCellCost)
	if o.corrupt {
		res.FinalState[0] += 1
	}
	rc.begin("verify", "run", res.Elapsed)
	ref, initialMass := haloSerial(w.ranks, cells, w.steps)
	var mass, worst float64
	if len(res.FinalState) == len(ref) {
		for i, v := range res.FinalState {
			mass += v
			worst = math.Max(worst, math.Abs(v-ref[i]))
		}
	}
	rc.end(res.Elapsed)
	r.spans = rc.spans
	drift := math.Abs(mass-initialMass) / initialMass
	switch {
	case len(res.FinalState) != len(ref):
		r.bad = fmt.Sprintf("final state has %d cells, want %d", len(res.FinalState), len(ref))
	case drift > haloTolerance:
		r.bad = fmt.Sprintf("mass drifted by %.3g (tolerance %g)", drift, haloTolerance)
	case worst > haloTolerance:
		r.bad = fmt.Sprintf("cell differs from the serial baseline by %.3g (tolerance %g)", worst, haloTolerance)
	default:
		r.ok = true
	}
	return r, nil
}
