// Command e2ebench is the repository's end-to-end benchmark. It drives the
// placement service in-process through its public calls
// (demand.Builder.Instance, serve.New, which solves with
// epf.SolveIntegerContext and certifies with verify.Audit, and
// Server.Handler on a loopback listener), times them from outside, checks
// every output, and prints the metrics named in BENCHMARK.json.
//
// End-to-end metrics, the same on every workload:
//
//	setup_s       input synthesis + instance build + serve.New + first /route
//	              200, median of three set-ups
//	place_s       time to a certified placement: on serve-route the cold
//	              start (serve.New to first /route 200, median of the
//	              set-ups); on serve-fresh the median freshness (POST /demand
//	              sent to the first published snapshot containing the batch)
//	peak_rss_mb   peak resident memory (VmHWM) over the timed phase
//
// The /route latencies at the lo rate (route_p50_ms, route_p99_ms, timed
// from each request's due time in the open-loop schedule) are reported with
// the per-layer figures: on a shared 2-CPU host their run-to-run spread
// (p50 up to 30% beside re-solves, p99 bimodal near 1.7 or 3.2 ms with the
// solver idle) is wider than any regression bound the benchmark may set.
//
// Usage (from the repository root):
//
//	bash e2ebench/run.sh --workload serve-route|serve-fresh \
//	    --seed N --seconds S --trace 0|1
//
// The seed fixes every input: catalog, demand trace, office topology,
// request keys and demand batches. --seconds is the length of the timed
// phase. With --trace 0 the last output line is a JSON object carrying the
// end-to-end metrics; with --trace 1 the workload runs twice, untraced and
// traced, the difference is printed as the tracing overhead, and the JSON
// carries the per-layer metrics of the traced run, read from the program's
// own telemetry (epf.Result.Stats, the obs trace events, /metrics) and from
// timings taken around each public call. Failed operations (a transport
// error, a non-2xx answer, a re-solve the server rejected) count in
// error_frac; a wrong output (an uncertified or unconverged placement, a
// /route body that disagrees with its snapshot) also makes the run
// incorrect and the exit status nonzero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"time"
)

// metric is one reported number.
type metric struct {
	name, unit string
	v          float64
}

// result is everything one run of a workload measured.
type result struct {
	e2e       []metric
	layers    []metric
	attempted int
	failed    int
	problems  []string        // wrong outputs; any makes the run incorrect
	report    strings.Builder // human-readable detail printed before the JSON line
}

func (r *result) problemf(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) printf(format string, args ...any) { fmt.Fprintf(&r.report, format, args...) }

func (r *result) e2eMetric(name, unit string, v float64) {
	r.e2e = append(r.e2e, metric{name, unit, v})
}

func (r *result) layer(name, unit string, v float64) {
	r.layers = append(r.layers, metric{name, unit, v})
}

// workloads maps each workload name to its runner; the rationale for each
// is recorded in BENCHMARK.json.
var workloads = map[string]func(seed int64, seconds int, traced bool) (*result, error){
	"serve-route": runServeRoute,
	"serve-fresh": runServeFresh,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: serve-route or serve-fresh")
		seed    = flag.Int64("seed", 1, "seed for every generated input")
		seconds = flag.Int("seconds", 20, "length of the timed phase in seconds")
		trace   = flag.Int("trace", 0, "1: also run traced and report per-layer metrics")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: need --workload serve-route|serve-fresh, --seconds ≥ 1, --trace 0|1\n")
		os.Exit(2)
	}
	os.Exit(benchmark(*name, run, *seed, *seconds, *trace == 1))
}

func benchmark(name string, run func(int64, int, bool) (*result, error), seed int64, seconds int, traced bool) int {
	res, err := run(seed, seconds, false)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", name, err)
		return 1
	}
	fmt.Printf("== %s seed %d, %ds, untraced\n%s", name, seed, seconds, res.report.String())
	printMetrics("end-to-end", res.e2e)
	out := res
	if traced {
		tr, err := run(seed, seconds, true)
		if err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: %s traced: %v\n", name, err)
			return 1
		}
		fmt.Printf("\n== %s seed %d, %ds, traced\n%s", name, seed, seconds, tr.report.String())
		printMetrics("end-to-end (traced)", tr.e2e)
		printOverhead(res.e2e, tr.e2e)
		printMetrics("per-layer", tr.layers)
		tr.attempted += res.attempted
		tr.failed += res.failed
		tr.problems = append(res.problems, tr.problems...)
		out = tr
	}
	for _, p := range out.problems {
		fmt.Printf("INCORRECT: %s\n", p)
	}
	correct := len(out.problems) == 0
	errFrac := float64(out.failed) / float64(max(1, out.attempted))
	fmt.Printf("error_frac = %d/%d = %.4g\n", out.failed, out.attempted, errFrac)
	ms := out.e2e
	if traced {
		ms = out.layers
		for i := range ms {
			if ms[i].name == "error_frac" {
				ms[i].v = errFrac
			}
		}
	}
	line, err := resultJSON(correct, out.attempted, out.failed, ms)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	fmt.Println(line)
	if !correct {
		return 1
	}
	return 0
}

func printMetrics(title string, ms []metric) {
	fmt.Printf("%s metrics:\n", title)
	for _, m := range ms {
		fmt.Printf("  %-26s %14.6g %s\n", m.name, m.v, m.unit)
	}
}

// printOverhead prints traced minus untraced for every end-to-end metric.
func printOverhead(base, traced []metric) {
	fmt.Println("tracing overhead (traced - untraced):")
	for i, m := range base {
		d := traced[i].v - m.v
		fmt.Printf("  %-26s %+14.6g %s (%+.1f%%)\n", m.name, d, m.unit, 100*d/m.v)
	}
}

// resultJSON renders the final output line.
func resultJSON(correct bool, attempted, failed int, ms []metric) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	vals := make(map[string]value, len(ms))
	for _, m := range ms {
		if math.IsNaN(m.v) || math.IsInf(m.v, 0) {
			return "", fmt.Errorf("metric %s is %v", m.name, m.v)
		}
		vals[m.name] = value{m.v, m.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, max(1, attempted), failed, vals})
	return string(b), err
}

// elapsedSince is a convenience for timing a call from outside.
func elapsedSince(t time.Time) float64 { return time.Since(t).Seconds() }
