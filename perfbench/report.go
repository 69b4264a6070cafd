package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"

	"ityr/internal/prof"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// spread summarizes one end-to-end metric across the run's repetitions.
type spread struct {
	P50     float64 `json:"p50"`
	Q1      float64 `json:"q1"`
	Q3      float64 `json:"q3"`
	Tail    float64 `json:"tail"`
	TailPct float64 `json:"tail_pct"`
	N       int     `json:"n"`
}

// report is the file a run writes next to its one-line result.
type report struct {
	Schema      string            `json:"schema"`
	Workload    string            `json:"workload"`
	Seed        int64             `json:"seed"`
	HeldOutSeed int64             `json:"held_out_seed"`
	Trace       bool              `json:"trace"`
	Env         map[string]any    `json:"env"`
	Notes       []string          `json:"notes"`
	Result      result            `json:"result"`
	Spreads     map[string]spread `json:"spreads,omitempty"`
	Errors      []string          `json:"errors,omitempty"`
	Unequal     []string          `json:"unequal,omitempty"`
	Spans       []span            `json:"spans"`
}

func env() map[string]any {
	e := map[string]any{
		"host_cpus":     runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"goos_goarch":   runtime.GOOS + "/" + runtime.GOARCH,
		"engine":        "serial (HostProcs=1)",
		"source_sha256": sourceDigest("."),
		"commit":        "unknown (not built inside a git checkout)",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				e["commit"] = s.Value
			case "vcs.modified":
				e["commit_modified"] = s.Value
			}
		}
	}
	return e
}

// sourceDigest hashes every Go source and go.mod under root (build output
// and hidden directories skipped), identifying the code measured even
// where no commit id is available.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the digest
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// collect gathers one float per repetition from the reps that pass keep.
func (b *benchRun) collect(keep func(*rep) bool, f func(*rep) float64) []float64 {
	var xs []float64
	for _, r := range b.reps {
		if keep(r) {
			xs = append(xs, f(r))
		}
	}
	return xs
}

func all(*rep) bool        { return true }
func untraced(r *rep) bool { return !r.traced }
func isTraced(r *rep) bool { return r.traced }

// perInput keeps the first repetition of each input that passes keep:
// simulated quantities are medians over inputs, each counted once.
func (b *benchRun) perInput(keep func(*rep) bool) func(*rep) bool {
	first := make(map[int]*rep)
	for _, r := range b.reps {
		if _, seen := first[r.input]; !seen && keep(r) {
			first[r.input] = r
		}
	}
	return func(r *rep) bool { return first[r.input] == r }
}

func (b *benchRun) notes() []string {
	n := []string{
		"closed loop: one client runs one simulation after another; an untimed warm-up repetition runs first",
		fmt.Sprintf("each pass covers %d inputs derived from the seed; host metrics are medians over all repetitions", inputsPerRun),
		"simulated metrics are medians over the inputs; repetitions of one input must agree exactly, traced or not",
		"counters are deltas over the measured phase, snapshotted at its boundaries",
	}
	if b.w.app == appHalo {
		n = append(n,
			"halo: halo.Run takes no seed and fixes its initial condition; the seed picks cells per rank (mean-4 .. mean+3)",
			fmt.Sprintf("halo: %d cells per rank at this seed", b.w.haloCells(b.seed)),
			"halo: halo.Run owns its runtime, so its counters are whole-run; the setup spans cover runtime construction only",
			"halo: the measured phase also covers the window allocation and initial-condition fill inside halo.Run",
			"halo: tracing means Config.Profile, since the app exposes no Config.Trace; pgas and uth layers are bypassed")
	}
	if b.w.app == appUTS {
		n = append(n, "uts: the T1L' tree is fixed; the seed feeds Config.Seed (victim selection); the build is setup")
	}
	return n
}

// report assembles the run's result line and report file.
func (b *benchRun) report(traceMode bool) report {
	rp := report{
		Schema:      "itoyori-perfbench/v1",
		Workload:    b.w.name,
		Seed:        b.seed,
		HeldOutSeed: heldOutSeed,
		Trace:       traceMode,
		Env:         env(),
		Notes:       b.notes(),
		Errors:      b.errs,
		Unequal:     b.unequal,
		Result: result{
			Correct:   b.correct(),
			Attempted: len(b.reps) + len(b.errs),
			Failed:    b.failed(),
		},
	}
	for _, r := range b.reps {
		rp.Spans = append(rp.Spans, r.spans...)
	}
	if len(b.reps) == 0 {
		rp.Result.Metrics = map[string]metric{}
		return rp
	}
	if traceMode {
		rp.Result.Metrics = b.layerMetrics()
		return rp
	}
	rp.Result.Metrics, rp.Spreads = b.endToEnd()
	return rp
}

// endToEnd computes the metrics a user of the simulator sees: simulated
// ones as medians over the run's inputs, host ones over its repetitions.
func (b *benchRun) endToEnd() (map[string]metric, map[string]spread) {
	ranks := float64(b.w.ranks)
	inputs := b.perInput(all)
	series := []struct {
		name, unit string
		keep       func(*rep) bool
		f          func(*rep) float64
	}{
		{"sim_ms", "ms", inputs, func(r *rep) float64 { return float64(r.simNs) / 1e6 }},
		{"round_trips", "count", inputs, func(r *rep) float64 {
			return float64(r.counters["rma_get_ops"] + r.counters["rma_put_ops"] + r.counters["rma_atomic_ops"])
		}},
		{"rma_mb", "MB", inputs, func(r *rep) float64 {
			return float64(r.counters["rma_get_bytes"]+r.counters["rma_put_bytes"]) / 1e6
		}},
		{"host_s", "s", all, (*rep).hostSeconds},
		{"setup_s", "s", all, (*rep).setupSeconds},
		{"alloc_mb", "MB", all, func(r *rep) float64 { return float64(r.allocBytes) / 1e6 }},
		{"heap_kb_per_rank", "KB", all, func(r *rep) float64 { return float64(r.heapBytes) / 1e3 / ranks }},
	}
	m := make(map[string]metric)
	sp := make(map[string]spread)
	for _, s := range series {
		xs := b.collect(s.keep, s.f)
		d := distOf(xs)
		m[s.name] = metric{Value: d.p50, Unit: s.unit}
		sp[s.name] = spread{P50: d.p50, Q1: quantile(xs, 0.25), Q3: quantile(xs, 0.75), Tail: d.tail, TailPct: d.tailPct, N: d.n}
	}
	return m, sp
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// simLayers computes the per-layer metrics of one traced repetition.
func simLayers(r *rep, ranks int) map[string]metric {
	m := make(map[string]metric)
	put := func(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }
	putDist := func(name string, d dist) {
		put(name+".p50", "ns", d.p50)
		put(name+".tail", "ns", d.tail)
		put(name+".tail_pct", "percentile", d.tailPct)
		put(name+".n", "count", float64(d.n))
	}
	c := func(k string) float64 { return float64(r.counters[k]) }

	put("sim.events", "count", c("sim_events_dispatched"))
	put("sim.handoffs", "count", c("sim_handoffs"))
	put("sim.fast_advances", "count", c("sim_fast_advances"))

	put("rma.get_ops", "count", c("rma_get_ops"))
	put("rma.put_ops", "count", c("rma_put_ops"))
	put("rma.atomic_ops", "count", c("rma_atomic_ops"))
	put("rma.get_mb", "MB", c("rma_get_bytes")/1e6)
	put("rma.put_mb", "MB", c("rma_put_bytes")/1e6)
	put("rma.flush_waits", "count", c("rma_flush_waits"))
	put("rma.barriers", "count", c("rma_barriers"))

	put("pgas.checkouts", "count", c("pgas_checkout_calls"))
	put("pgas.checkins", "count", c("pgas_checkin_calls"))
	put("pgas.fetch_ops", "count", c("pgas_fetch_ops"))
	put("pgas.fetch_mb", "MB", c("pgas_fetch_bytes")/1e6)
	put("pgas.hit_ratio", "ratio", ratio(c("pgas_hit_bytes"), c("pgas_hit_bytes")+c("pgas_fetch_bytes")))
	put("pgas.writeback_ops", "count", c("pgas_writeback_ops"))
	put("pgas.writeback_mb", "MB", c("pgas_writeback_bytes")/1e6)
	put("pgas.wb_runs_merged", "count", c("pgas_wb_runs_merged"))
	put("pgas.prefetch_ops", "count", c("pgas_prefetch_ops"))
	put("pgas.prefetch_useful_ratio", "ratio", ratio(c("pgas_prefetch_hits"), c("pgas_prefetch_blocks")))
	put("pgas.invalidations", "count", c("pgas_invalidations"))
	put("pgas.lazy_releases", "count", c("pgas_lazy_releases"))
	for _, cat := range []struct{ name, prof string }{
		{"checkout", prof.CatCheckout}, {"checkin", prof.CatCheckin}, {"release", prof.CatRelease},
		{"lazy_release", prof.CatLazyRelease}, {"acquire", prof.CatAcquire},
	} {
		put("pgas.sim_"+cat.name+"_ms", "ms", float64(r.profNs[cat.prof])/1e6)
	}
	checkouts := make([]float64, len(r.checkoutNs))
	for i, v := range r.checkoutNs {
		checkouts[i] = float64(v)
	}
	putDist("pgas.checkout_ns", distOf(checkouts))
	putDist("pgas.release_ns", distOfHist(r.hists["pgas_release_ns"]))
	putDist("pgas.acquire_ns", distOfHist(r.hists["pgas_acquire_ns"]))

	put("memblock.mmaps", "count", c("pgas_mmaps"))
	put("memblock.evictions", "count", c("pgas_evictions"))

	put("uth.forks", "count", c("uth_forks"))
	put("uth.steals", "count", c("uth_steals"))
	put("uth.failed_steals", "count", c("uth_failed_steals"))
	put("uth.steal_success_ratio", "ratio", ratio(c("uth_steals"), c("uth_steals")+c("uth_failed_steals")))
	put("uth.migrations", "count", c("uth_migrations"))
	put("uth.sim_steal_ms", "ms", float64(r.stealNs)/1e6)
	put("uth.sim_idle_ms", "ms", float64(r.idleNs)/1e6)
	put("uth.idle_share", "ratio", ratio(float64(r.stealNs+r.idleNs), float64(ranks)*float64(r.simNs)))
	putDist("uth.steal_ns", distOfHist(r.hists["uth_steal_latency_ns"]))
	putDist("uth.failed_steal_ns", distOfHist(r.hists["uth_failed_steal_latency_ns"]))

	put("app.sim_compute_ms", "ms", float64(r.computeNs)/1e6)
	return m
}

// layerMetrics computes the per-layer metrics of a trace-mode run.
// Simulated ones are medians over the run's inputs, from the traced
// repetitions (whose counters equal the untraced ones: compareReps checks
// that); host ones are medians over the untraced repetitions.
func (b *benchRun) layerMetrics() map[string]metric {
	m := make(map[string]metric)
	put := func(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

	perRep := make(map[string][]float64)
	firstTraced := b.perInput(isTraced)
	for _, r := range b.reps {
		if !firstTraced(r) {
			continue
		}
		for k, v := range simLayers(r, b.w.ranks) {
			perRep[k] = append(perRep[k], v.Value)
			m[k] = v
		}
	}
	for k, xs := range perRep {
		put(k, m[k].Unit, median(xs))
	}

	hostS := median(b.collect(untraced, (*rep).hostSeconds))
	events := median(b.collect(untraced, func(r *rep) float64 { return float64(r.counters["sim_events_dispatched"]) }))
	put("sim.host_ns_per_event", "ns", ratio(hostS*1e9, events))

	cpu := make(map[string]int64)
	var samples int64
	for _, r := range b.reps {
		if r.cpuProfile == nil {
			continue
		}
		n, err := foldProfile(r.cpuProfile, cpu)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: repetition %d: %v\n", r.id, err)
		}
		samples += n
	}
	for _, k := range hostBuckets {
		put("host."+k+"_pct", "%", 100*ratio(float64(cpu[k]), float64(samples)))
	}
	put("host.samples", "count", float64(samples))
	put("go.mallocs", "count", median(b.collect(untraced, func(r *rep) float64 { return float64(r.mallocs) })))
	put("go.gc_cycles", "count", median(b.collect(untraced, func(r *rep) float64 { return float64(r.gcCycles) })))

	for _, s := range []string{"new_runtime", "alloc", "input", "measure", "verify"} {
		put("span."+s+"_s", "s", median(b.collect(untraced, func(r *rep) float64 { return r.spanSeconds(s) })))
	}
	tracedS := median(b.collect(isTraced, (*rep).hostSeconds))
	put("trace.overhead_pct", "%", 100*(ratio(tracedS, hostS)-1))
	put("verify.fail_ratio", "ratio", ratio(float64(b.failed()), float64(len(b.reps)+len(b.errs))))
	put("run.reps", "count", float64(len(b.reps)))
	return m
}

// summarize prints a human-readable digest of the run to w.
func (b *benchRun) summarize(w io.Writer, path string) {
	fmt.Fprintf(w, "perfbench %s seed=%d trace=%v: %d repetitions, %d failed, correct=%v (report %s)\n",
		b.w.name, b.seed, b.traced, len(b.reps), b.failed(), b.correct(), path)
	for _, e := range b.errs {
		fmt.Fprintln(w, "  error:", e)
	}
	for _, u := range b.unequal {
		fmt.Fprintln(w, "  not repeatable:", u)
	}
	for _, r := range b.reps {
		fmt.Fprintf(w, "  rep %2d input %d traced=%-5v setup %.3fs measure %.3fs (%d GC) sim %.3fms ok=%v\n",
			r.id, r.input, r.traced, r.setupSeconds(), r.hostSeconds(), r.gcCycles, float64(r.simNs)/1e6, r.ok)
	}
}
