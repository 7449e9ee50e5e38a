package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs, which must be sorted
// ascending, interpolating linearly between the two closest ranks (the
// default of R, NumPy and Python's statistics "inclusive" method). It
// returns NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	if frac == 0 || xs[lo] == xs[lo+1] {
		return xs[lo] // also keeps two +Inf neighbours from making NaN
	}
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median is the 0.5-quantile of an unsorted sample.
func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// windowQuantile splits xs (in arrival order) into consecutive windows of w
// samples, a short last window joining the one before it, and returns the
// median over the windows of each window's q-quantile. A tail percentile
// of a phase pooled whole is set by its single worst stretch; the median
// window describes the phase as a whole and repeats from run to run.
func windowQuantile(xs []float64, w int, q float64) float64 {
	n := max(1, len(xs)/w)
	per := make([]float64, n)
	for i := range per {
		hi := (i + 1) * w
		if i == n-1 {
			hi = len(xs)
		}
		per[i] = quantile(sorted(xs[i*w:hi]), q)
	}
	return median(per)
}

// tailQuantile returns the highest of the tail percentiles 0.99, 0.9 and
// 0.5 that has at least ten of n samples above it, and false when even the
// median has fewer. A percentile with fewer samples beyond it is one
// observation's noise, not a tail.
func tailQuantile(n int) (float64, bool) {
	for _, pct := range []int{99, 90, 50} {
		if n*(100-pct) >= 10*100 {
			return float64(pct) / 100, true
		}
	}
	return 0, false
}

// pctName renders a quantile as the suffix used in metric names: 0.99 →
// "p99", 0.5 → "p50".
func pctName(q float64) string {
	return "p" + strconv.FormatFloat(100*q, 'f', -1, 64)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// part is one named layer of an end-to-end time.
type part struct {
	name string
	v    float64
}

// withRemainder appends the explicit "unattributed" part that makes parts
// sum exactly to total. A negative remainder means the layers overlap or
// were measured over a different interval than the total, and is kept so
// the mismatch stays visible.
func withRemainder(total float64, parts []part) []part {
	sum := 0.0
	for _, p := range parts {
		sum += p.v
	}
	return append(parts, part{"unattributed", total - sum})
}

// writeBreakdown prints total and its parts, one per line, with each part's
// share of the total.
func writeBreakdown(w io.Writer, title, unit string, total float64, parts []part) {
	fmt.Fprintf(w, "%s = %.4g %s\n", title, total, unit)
	for _, p := range parts {
		share := math.NaN()
		if total != 0 {
			share = 100 * p.v / total
		}
		fmt.Fprintf(w, "  %-22s %10.4g %s  %6.1f%%\n", p.name, p.v, unit, share)
	}
}

// clearPeakRSS resets the kernel's peak-RSS mark (VmHWM) to the current
// resident size, so a later peakRSSMB reads the peak of the interval since.
func clearPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads VmHWM from /proc/self/status, in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 3 && fields[0] == "VmHWM:" && fields[2] == "kB" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// runtimeSample is a reading of the Go runtime's allocation and GC-pause
// counters; the difference of two readings covers the interval between.
type runtimeSample struct {
	allocBytes uint64
	pauses     *metrics.Float64Histogram
}

var runtimeMetricNames = []string{"/gc/heap/allocs:bytes", "/sched/pauses/total/gc:seconds"}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{allocBytes: s[0].Value.Uint64(), pauses: s[1].Value.Float64Histogram()}
}

// allocMB is the heap allocated between two readings, in MiB: allocation
// churn, not memory held.
func allocMB(before, after runtimeSample) float64 {
	return float64(after.allocBytes-before.allocBytes) / (1 << 20)
}

// pauseQuantileMS returns the q-quantile of the GC stop-the-world pauses
// that happened between two readings, in milliseconds, taking each bucket's
// upper edge; 0 when there was no pause.
func pauseQuantileMS(before, after runtimeSample, q float64) float64 {
	counts := make([]uint64, len(after.pauses.Counts))
	var n uint64
	for i, c := range after.pauses.Counts {
		counts[i] = c - before.pauses.Counts[i]
		n += counts[i]
	}
	if n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(n)))
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum >= rank && c > 0 {
			hi := after.pauses.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = after.pauses.Buckets[i]
			}
			return hi * 1e3
		}
	}
	return 0
}
