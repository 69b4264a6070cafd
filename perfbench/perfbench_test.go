package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"runtime/pprof"
	"sort"
	"testing"
	"time"

	"ityr/internal/apps/uts"
	"ityr/internal/metrics"
)

// small are reduced-size versions of the three workloads.
var small = []workload{
	{name: "cilksort-small", app: appCilksort, ranks: 16, cores: 4, n: 1 << 14, cutoff: 1 << 10},
	{name: "uts-small", app: appUTS, ranks: 8, cores: 4,
		tree: uts.Tree{Name: "S", Seed: 5, RootKids: 60, MeanKids: 0.9, MaxDepth: 100}},
	{name: "halo-small", app: appHalo, ranks: 16, cores: 4, cells: 32, steps: 4},
}

func mustRep(t *testing.T, w workload, o repOpts) *rep {
	t.Helper()
	r, err := runRep(w, o)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	return r
}

// TestCorruptOutputFails is the negative control: damaging the output
// after the measured phase must fail verification and count as failed.
func TestCorruptOutputFails(t *testing.T) {
	for _, w := range small {
		r := mustRep(t, w, repOpts{seed: 3, corrupt: true})
		if r.ok {
			t.Errorf("%s: corrupted output passed verification", w.name)
			continue
		}
		b := &benchRun{w: w, reps: []*rep{r}}
		if b.failed() != 1 || b.correct() {
			t.Errorf("%s: corrupted repetition not counted as failed (failed=%d correct=%v)", w.name, b.failed(), b.correct())
		}
	}
}

// TestDeterminism checks that one seed reproduces every simulated
// quantity and layer counter, with tracing off and on.
func TestDeterminism(t *testing.T) {
	for _, w := range small {
		a := mustRep(t, w, repOpts{id: 1, seed: 5})
		b := mustRep(t, w, repOpts{id: 2, seed: 5})
		c := mustRep(t, w, repOpts{id: 3, seed: 5, traced: true})
		if d := compareReps([]*rep{a, b, c}); len(d) != 0 {
			t.Errorf("%s: runs at one seed differ: %v", w.name, d)
		}
		if a.simNs == 0 || len(a.counters) == 0 {
			t.Errorf("%s: nothing measured (sim_ns=%d, %d counters)", w.name, a.simNs, len(a.counters))
		}
	}
}

// TestCompareRepsCatchesDifference guards the determinism check itself.
func TestCompareRepsCatchesDifference(t *testing.T) {
	w := small[0]
	a := mustRep(t, w, repOpts{id: 1, seed: 5})
	b := mustRep(t, w, repOpts{id: 2, seed: 6})
	if d := compareReps([]*rep{a, b}); len(d) == 0 {
		t.Errorf("runs at seeds 5 and 6 compared equal")
	}
}

// TestMetricNames runs the benchmark loop in both modes and checks that
// it reports exactly the metrics BENCHMARK.json declares.
func TestMetricNames(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, wl := range spec.Workloads {
		names = append(names, wl.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if !equalSets(names, have) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", names, have)
	}
	for _, w := range small {
		for _, mode := range []struct {
			traced bool
			want   []struct{ Name, Unit string }
		}{{false, spec.EndToEnd}, {true, spec.PerLayer}} {
			b := bench(w, 2, 0.01, mode.traced, io.Discard)
			rp := b.report(mode.traced)
			if !rp.Result.Correct || rp.Result.Failed != 0 || rp.Result.Attempted < inputsPerRun {
				t.Errorf("%s trace=%v: result %+v, unequal %v, errors %v", w.name, mode.traced,
					rp.Result, b.unequal, b.errs)
			}
			var got []string
			for k := range rp.Result.Metrics {
				got = append(got, k)
			}
			var want []string
			for _, m := range mode.want {
				want = append(want, m.Name)
				if u := rp.Result.Metrics[m.Name].Unit; u != m.Unit {
					t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", w.name, m.Name, u, m.Unit)
				}
			}
			if !equalSets(got, want) {
				t.Errorf("%s trace=%v: metrics %v, BENCHMARK.json declares %v", w.name, mode.traced, got, want)
			}
		}
	}
}

func equalSets(a, b []string) bool {
	a = append([]string(nil), a...)
	b = append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestFuncPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"ityr/internal/sim.(*Engine).Run":               "ityr/internal/sim",
		"ityr.Checkout[go.shape.int32]":                 "ityr",
		"ityr/internal/pgas.f[ityr/internal/rma.Stats]": "ityr/internal/pgas",
		"ityr/internal/apps/halo.Run.func2":             "ityr/internal/apps/halo",
		"math/rand.(*Rand).Int63":                       "math/rand",
		"runtime.mallocgc":                              "runtime",
	} {
		if got := funcPackage(fn); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestSampleBucket(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"ityr/internal/sim.(*Engine).Run"}, "sim"},
		{[]string{"ityr/internal/netmodel.Params.TransferTime", "ityr/internal/rma.(*Rank).Put"}, "rma"},
		{[]string{"sort.insertionSort", "ityr/internal/apps/cilksort.sortLeaf"}, "app"},
		{[]string{"math/rand.(*Rand).Int63", "ityr/internal/uth.(*Sched).pick"}, "rand"},
		{[]string{"runtime.mallocgc", "ityr/internal/pgas.(*Local).Checkout"}, "goruntime"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.memmove", "runtime.gcAssistAlloc", "runtime.mallocgc"}, "gc"},
		{[]string{"ityr.Checkout[go.shape.int32]"}, "core"},
		{[]string{"ityr/internal/trace.(*Log).RecSpan"}, "other"},
		{[]string{"syscall.Syscall"}, "other"},
	} {
		if got := sampleBucket(c.stack); got != c.want {
			t.Errorf("sampleBucket(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

//go:noinline
func spin(d time.Duration) int {
	x := 0
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x += i * i
		}
	}
	return x
}

// TestFoldProfile decodes a real CPU profile and checks that every
// sample lands in exactly one bucket.
func TestFoldProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	into := make(map[string]int64)
	n, err := foldProfile(buf.Bytes(), into)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no samples in a 300 ms busy loop")
	}
	var sum int64
	for _, v := range into {
		sum += v
	}
	if sum != n {
		t.Errorf("buckets hold %d samples, profile has %d", sum, n)
	}
	if _, err := foldProfile([]byte("not a profile"), into); err == nil {
		t.Error("garbage decoded as a profile")
	}
}

func TestQuantiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if q := quantile(xs, 0.5); q != 3 {
		t.Errorf("median = %v, want 3", q)
	}
	if q := quantile(xs, 0.25); q != 2 {
		t.Errorf("q1 = %v, want 2", q)
	}
	for n, want := range map[int]float64{0: 0, 19: 0, 20: 50, 40: 75, 100: 90, 999: 90, 1000: 99, 10000: 99.9} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %v, want %v", n, got, want)
		}
	}
	h := metrics.HistogramSnapshot{Bounds: []int64{10, 20}, Counts: []uint64{0, 10, 0}, Count: 10, Max: 20}
	if q := histQuantile(h, 0.5); q != 15 {
		t.Errorf("histogram median = %v, want 15", q)
	}
	if q := histQuantile(metrics.HistogramSnapshot{}, 0.5); q != 0 {
		t.Errorf("empty histogram median = %v, want 0", q)
	}
}

func TestHaloSeedVariesBlockSize(t *testing.T) {
	w := workloads[2]
	seen := map[int]bool{}
	for s := int64(0); s < 16; s++ {
		c := w.haloCells(s)
		if c < w.cells-4 || c > w.cells+3 {
			t.Errorf("seed %d: %d cells, outside %d±4", s, c, w.cells)
		}
		seen[c] = true
	}
	if len(seen) != 8 {
		t.Errorf("seeds produce %d block sizes, want 8", len(seen))
	}
}

func TestUnknownWorkloadExits2(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errb); code != 2 || out.Len() != 0 {
		t.Errorf("exit %d, stdout %q", code, out.String())
	}
}
