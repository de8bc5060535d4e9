// Command wpbench is the repository's end-to-end benchmark. Each workload
// is a closed loop in one process: a cluster of at most two ranks trains
// (or the simulator sweeps its grid), every step starts when the previous
// one returns, and every output is checked. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured untraced;
// with --trace 1 they are the per-layer ones, from a traced run. --steady N
// instead runs every workload N times (one process per run, seeds 1..N)
// and prints each end-to-end metric's median and interquartile spread
// against its bound in BENCHMARK.json. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	"weipipe/internal/tensor"
)

// setupReps is how many times a run sets its workload up from scratch;
// setup_s is the median, and the last set-up cluster is the one measured.
const setupReps = 3

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts checked operations (training steps, grid cells) and the
// ones whose outputs were wrong.
type tally struct {
	attempted, failed int
}

// check records one checked operation; ok=false logs why and counts it
// as failed.
func (t *tally) check(ok bool, format string, args ...any) {
	t.attempted++
	if !ok {
		t.failed++
		fmt.Fprintf(os.Stderr, "wpbench: check failed: "+format+"\n", args...)
	}
}

func main() {
	workload := flag.String("workload", "", "workload name (see README.md)")
	seed := flag.Uint64("seed", 1, "workload seed: model init, batches and grid order")
	seconds := flag.Float64("seconds", 0, "measured wall time per run (--steady: 0 takes run_seconds from BENCHMARK.json)")
	traced := flag.Int("trace", 0, "0: end-to-end metrics untraced; 1: per-layer metrics from a traced run")
	steady := flag.Int("steady", 0, "run every workload this many times and report median and spread per metric")
	flag.Parse()

	if err := tensor.SetBackend("auto"); err != nil {
		fatal(err)
	}
	if *steady > 0 {
		if err := steadiness(*steady, *seconds, *workload); err != nil {
			fatal(err)
		}
		return
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("--seconds must be positive"))
	}
	if *traced != 0 && *traced != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1, got %d", *traced))
	}
	fmt.Printf("env: nproc=%d GOMAXPROCS=%d backend=%s exact=%v go=%s workload=%s seed=%d seconds=%g trace=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), tensor.BackendName(), tensor.BackendExact(),
		runtime.Version(), *workload, *seed, *seconds, *traced)

	dur := time.Duration(*seconds * float64(time.Second))
	var res *result
	var err error
	if *workload == simGridName {
		res, err = runSimGrid(*seed, dur, *traced == 1)
	} else if spec, ok := trainSpecs[*workload]; ok {
		res, err = runTraining(spec, *seed, dur, *traced == 1)
	} else {
		err = fmt.Errorf("unknown workload %q (have %v)", *workload, workloadNames())
	}
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wpbench:", err)
	os.Exit(1)
}

// workloadNames lists every workload in report order.
func workloadNames() []string {
	return []string{"longctx-wzb2-inproc", "belt-wzb2-tcp", "actpass-1f1b-tcp", simGridName}
}

// ---- measurement helpers --------------------------------------------------

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB returns the process's peak resident set size (ru_maxrss, KiB
// on Linux) in MiB.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs with the
// "exclusive" interpolation Python's statistics.quantiles(xs, n=4) uses.
// It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	m := n + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// durationsMs converts durations to float milliseconds.
func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
