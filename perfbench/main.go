// Command perfbench is the repository's benchmark: it runs one named
// workload against the real apps in a closed loop for a fixed time,
// verifies every repetition's output, and prints the metrics as one JSON
// object on the last line of standard output.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload cilksort-1728 --seed 1 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// metrics from a run that alternates untraced repetitions (host CPU
// profiled) with traced ones. README.md documents the workloads, every
// metric and the layer each one belongs to.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// heldOutSeed is the seed reserved for validating later performance
// claims; no tuning of this benchmark used it.
const heldOutSeed = 7919

// gomaxprocs is the Go scheduler's processor count for every run. The
// engine is serial, so a second P only lets the garbage collector run
// beside it; on a 2-CPU host one P measured both faster (cilksort-1728
// median 0.92 s against 1.12 s) and steadier (0.80-1.07 s against
// 0.84-1.31 s over ten repetitions).
const gomaxprocs = 1

// inputsPerRun is how many distinct inputs one pass of a run covers, each
// derived from --seed. Simulated metrics are medians over these inputs,
// which damps the schedule-to-schedule variance of a single input while
// keeping every number a pure function of --seed.
const inputsPerRun = 8

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (cilksort-1728, uts-64, halo-4096)")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "measure for this many seconds")
	traceMode := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceMode != 0 && *traceMode != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	runtime.GOMAXPROCS(gomaxprocs)

	res := bench(w, *seed, *seconds, *traceMode == 1, stderr)
	rep := res.report(*traceMode == 1)
	path := filepath.Join(".bench_build", "perfbench", "reports", fmt.Sprintf("%s-seed%d-trace%d.json", w.name, *seed, *traceMode))
	if err := writeJSON(path, rep); err != nil {
		fmt.Fprintln(stderr, "perfbench: writing report:", err)
		return 1
	}
	res.summarize(stderr, path)
	line, err := json.Marshal(rep.Result)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// benchRun is everything one invocation measured.
type benchRun struct {
	w       workload
	seed    int64
	traced  bool
	reps    []*rep
	errs    []string // repetitions that failed to run at all
	unequal []string // simulated quantities that differed between repetitions
}

// inputSeed derives the seed of input k of a run at seed.
func inputSeed(seed int64, k int) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(k+1)*0xD1B54A32D192ED03
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64((z ^ (z >> 31)) >> 1)
}

// bench runs an untimed warm-up repetition, then whole passes over the
// run's inputs until seconds have passed, so every input weighs the same
// in each median. In trace mode passes alternate between untraced
// repetitions, whose host CPU is profiled, and traced ones, and at least
// one pass of each runs.
func bench(w workload, seed int64, seconds float64, traced bool, stderr io.Writer) *benchRun {
	b := &benchRun{w: w, seed: seed, traced: traced}
	if _, err := runRep(w, repOpts{seed: inputSeed(seed, 0)}); err != nil {
		b.errs = append(b.errs, "warm-up: "+err.Error())
	}
	minPasses := 1
	if traced {
		minPasses = 2
	}
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for pass := 0; pass < minPasses || time.Now().Before(deadline); pass++ {
		tracedPass := traced && pass%2 == 1
		for k := 0; k < inputsPerRun; k++ {
			o := repOpts{id: pass*inputsPerRun + k + 1, input: k, seed: inputSeed(seed, k),
				traced: tracedPass, cpuProf: traced && !tracedPass}
			r, err := runRep(w, o)
			if err != nil {
				b.errs = append(b.errs, fmt.Sprintf("repetition %d: %v", o.id, err))
				continue
			}
			if !r.ok {
				fmt.Fprintf(stderr, "perfbench: repetition %d failed verification: %s\n", o.id, r.bad)
			}
			b.reps = append(b.reps, r)
		}
	}
	b.unequal = compareReps(b.reps)
	return b
}

// compareReps lists every simulated quantity on which a repetition
// differs from the first repetition of the same input. One input must
// reproduce the same run, and tracing must not change it.
func compareReps(reps []*rep) []string {
	var out []string
	first := make(map[int]*rep)
	for _, r := range reps {
		a, ok := first[r.input]
		if !ok {
			first[r.input] = r
			continue
		}
		if r.simNs != a.simNs {
			out = append(out, fmt.Sprintf("rep %d sim_ns %d != %d", r.id, r.simNs, a.simNs))
		}
		if r.computeNs != a.computeNs {
			out = append(out, fmt.Sprintf("rep %d compute_ns %d != %d", r.id, r.computeNs, a.computeNs))
		}
		for k, v := range a.counters {
			if rv, ok := r.counters[k]; ok && rv != v {
				out = append(out, fmt.Sprintf("rep %d counter %s %d != %d", r.id, k, rv, v))
			}
		}
		for k, v := range a.profNs {
			if r.profNs[k] != v {
				out = append(out, fmt.Sprintf("rep %d profiler %q %d != %d", r.id, k, r.profNs[k], v))
			}
		}
	}
	return out
}

func (b *benchRun) failed() int {
	n := len(b.errs)
	for _, r := range b.reps {
		if !r.ok {
			n++
		}
	}
	return n
}

func (b *benchRun) correct() bool {
	return len(b.reps) > 0 && b.failed() == 0 && len(b.unequal) == 0
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
