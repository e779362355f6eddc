// Command cs2pbench is the repository benchmark: it runs the churn, steady
// and learn workloads against the real serving and training stacks, built
// in-process from their public constructors, checks every output, and
// prints one JSON result line. See README.md.
//
//	cs2pbench --workload churn --seed 1 --seconds 30 --trace 0
//	cs2pbench --workload steady --repeat 5   # steadiness mode
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// runOpts are one run's settings.
type runOpts struct {
	seed   int64
	window time.Duration
	traced bool
	nproc  int
}

// outcome is what one workload run measured and checked.
type outcome struct {
	e2e    map[string]float64
	layers map[string]float64
	acct   accounting
	check  *checker
	notes  []string
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
}

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the end-to-end metrics every workload reports (README.md
// gives each one's meaning per workload).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"heap_mb", "MB"},
	{"midstream_ape_p50", "ratio"},
	{"train_cpu_s", "s"},
	{"train_alloc_mb", "MB"},
}

// perLayer lists the traced run's per-layer metrics; a layer a workload
// does not exercise reads 0.
var perLayer = []metricDef{
	{"loadgen.dispatch_late_max_ms", "ms"},
	{"httpapi.client.start_ms", "ms"},
	{"httpapi.client.chunk_ms", "ms"},
	{"httpapi.client.log_ms", "ms"},
	{"httpapi.handler.start_ms", "ms"},
	{"httpapi.handler.chunk_ms", "ms"},
	{"httpapi.handler.log_ms", "ms"},
	{"httpapi.transport.chunk_ms", "ms"},
	{"wire.front.bytes_per_chunk", "B"},
	{"router.handler.chunk_ms", "ms"},
	{"router.overhead.chunk_ms", "ms"},
	{"router.upstream.dials_per_kop", "count"},
	{"router.upstream.bytes_per_chunk", "B"},
	{"router.upstream.requests_per_op", "ratio"},
	{"engine.start_us", "us"},
	{"engine.rebuffer_forecast_ms", "ms"},
	{"engine.forecast_repeat_ratio", "ratio"},
	{"engine.cluster_hit_ratio", "ratio"},
	{"engine.observe_us", "us"},
	{"engine.end_us", "us"},
	{"engine.ingest_ms", "ms"},
	{"engine.online_retrain_s", "s"},
	{"hmm.filter_step_ns", "ns"},
	{"hmm.fit_s", "s"},
	{"hmm.fits", "count"},
	{"hmm.em_iters", "count"},
	{"cluster.select_s", "s"},
	{"core.parallel_speedup", "ratio"},
	{"core.online_absorb_s", "s"},
	{"runtime.alloc_kb_per_session", "KB"},
	{"runtime.alloc_b_per_chunk", "B"},
}

var workloads = map[string]func(runOpts) (*outcome, error){
	"churn":  runChurn,
	"steady": runSteady,
	"learn":  runLearn,
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cs2pbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: churn, steady or learn")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 30, "length of the measured window in seconds")
	traced := fs.Int("trace", 0, "1 = traced run: print the per-layer metrics instead of the end-to-end ones")
	repeat := fs.Int("repeat", 0, "steadiness mode: run the workload this many times, seeds seed, seed+1, ..., and print each end-to-end metric's spread")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "cs2pbench: need --workload churn|steady|learn, --seconds > 0 and --trace 0|1\n")
		return 2
	}
	if *repeat > 0 {
		return steadiness(*workload, *seed, *seconds, *traced, *repeat, stdout, stderr)
	}
	nproc := runtime.NumCPU()
	if runtime.GOMAXPROCS(0) > nproc {
		runtime.GOMAXPROCS(nproc)
	}
	o := runOpts{seed: *seed, window: time.Duration(*seconds * float64(time.Second)), traced: *traced == 1, nproc: nproc}
	calStart := calibrate()
	out, err := fn(o)
	if err == nil {
		out.notef("calibration loop: %.3f ms before the run, %.3f ms after", calStart, calibrate())
	}
	if err != nil {
		fmt.Fprintf(stderr, "cs2pbench: %s: %v\n", *workload, err)
		return 1
	}
	res, verdict := report(*workload, out, o.traced, stderr)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "cs2pbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if verdict != nil {
		fmt.Fprintf(stderr, "cs2pbench: %s: %v\n", *workload, verdict)
		return 1
	}
	return 0
}

// report prints the run's accounting, check summary and notes to stderr and
// builds the result line. The returned error is non-nil when an output
// check failed or a metric could not be measured.
func report(workload string, out *outcome, traced bool, stderr io.Writer) (result, error) {
	res := result{Correct: true, Metrics: map[string]metricValue{}}
	res.Attempted, res.Failed = out.acct.totals()
	var kinds []string
	for k := opKind(0); k < nOps; k++ {
		if a := out.acct.attempted[k].Load(); a > 0 {
			kinds = append(kinds, fmt.Sprintf("%s %d/%d", opNames[k], out.acct.failed[k].Load(), a))
		}
	}
	fmt.Fprintf(stderr, "%s: operations failed/attempted: %s\n", workload, strings.Join(kinds, ", "))
	c := out.check
	compared, ties, failures := c.compared, c.ties, c.errs
	fmt.Fprintf(stderr, "%s: reference filter: %d predictions compared, %d argmax near-ties exempt\n", workload, compared, ties)
	for _, n := range out.notes {
		fmt.Fprintf(stderr, "%s: %s\n", workload, n)
	}
	defs, values := endToEnd, out.e2e
	if traced {
		// The traced run's end-to-end figures are kept beside its per-layer
		// ones; their difference from untraced runs is the tracing overhead.
		for _, d := range endToEnd {
			fmt.Fprintf(stderr, "%s: traced end-to-end %s = %.6g %s\n", workload, d.name, out.e2e[d.name], d.unit)
		}
		defs, values = perLayer, out.layers
	}
	var verdict error
	if compared == 0 {
		failures = append(failures, "no prediction was compared")
	}
	if len(failures) > 0 {
		res.Correct = false
		verdict = errors.New("output check failed: " + strings.Join(failures, "; "))
	}
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) || (!traced && v <= 0) {
			verdict = errors.Join(verdict, fmt.Errorf("metric %s not measured (%v)", d.name, v))
			v = 0
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return res, verdict
}

// steadiness runs the workload n times as child processes with seeds
// seed..seed+n-1 and prints, for each metric, the median, quartiles,
// min/max and the interquartile range as a share of the median.
func steadiness(workload string, seed int64, seconds float64, traced, n int, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "cs2pbench: %v\n", err)
		return 1
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		cmd := exec.Command(exe, "--workload", workload, "--seed", fmt.Sprint(s),
			"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(traced))
		cmd.Stderr = stderr
		outb, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(stderr, "cs2pbench: run with seed %d: %v\n", s, err)
			return 1
		}
		lines := strings.Split(strings.TrimSpace(string(outb)), "\n")
		var r result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
			fmt.Fprintf(stderr, "cs2pbench: run with seed %d: %v\n", s, err)
			return 1
		}
		for name, m := range r.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
		fmt.Fprintf(stdout, "seed %d: %s\n", s, lines[len(lines)-1])
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "%-34s %12s %12s %12s %12s %12s %8s\n", "metric", "min", "q1", "median", "q3", "max", "iqr/med")
	for _, name := range names {
		v := append([]float64(nil), values[name]...)
		sort.Float64s(v)
		q1, med, q3 := quartiles(v)
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / math.Abs(med)
		}
		fmt.Fprintf(stdout, "%-34s %12.6g %12.6g %12.6g %12.6g %12.6g %8.4f %s\n", name, v[0], q1, med, q3, v[len(v)-1], spread, units[name])
	}
	return 0
}

// quartiles matches Python's statistics.quantiles(v, n=4) (the exclusive
// method) on sorted v.
func quartiles(v []float64) (q1, med, q3 float64) {
	n := len(v)
	if n == 1 {
		return v[0], v[0], v[0]
	}
	at := func(j int) float64 {
		m := n + 1
		idx := j * m / 4
		if idx < 1 {
			idx = 1
		}
		if idx > n-1 {
			idx = n - 1
		}
		delta := float64(j*m-4*idx) / 4
		return v[idx-1] + delta*(v[idx]-v[idx-1])
	}
	return at(1), at(2), at(3)
}
