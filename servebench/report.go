package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// metric is one reported number.
type metric struct {
	name, unit string
	value      float64
}

// report collects a run's metrics and outcome.
type report struct {
	b                        *bench
	metrics                  []metric
	notes                    []metric // ungated: printed by name, not in the result line
	attempted, failed, wrong int
	failures                 []string // first failure messages, for stderr
	endFailures              []string // failed end-of-run checks
}

func newReport(b *bench) *report { return &report{b: b} }

// addSamples counts operations, failures and wrong answers.
func (r *report) addSamples(sets ...[]sample) {
	for _, set := range sets {
		for _, s := range set {
			r.attempted++
			if s.failed {
				r.failed++
				if len(r.failures) < 10 {
					r.failures = append(r.failures, s.errText)
				}
			}
			if s.wrong {
				r.wrong++
			}
		}
	}
}

// ungated are end-to-end metrics printed by name but left out of the
// result line of the gated workloads, because their run-to-run spread
// exceeds any useful bound (see README.md): the tail on hot-cached moves
// with how many GC cycles fall into the phase, the ranked and query
// families' medians on cold-ranked sit between cheap and expensive
// requests, and peak throughput on cold-ranked moves with how many
// expensive reads the fleet hedges.
var ungated = map[string]bool{
	"peak_ops_per_s": true,
	"read_p99_ms":    true,
	"terms_p50_ms":   true,
	"complex_p50_ms": true,
	"query_p50_ms":   true,
}

func (r *report) add(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		logf("metric %s has no value (%v); reported as 0", name, v)
		v = 0
	}
	m := metric{name: name, unit: unit, value: v}
	if ungated[name] && r.b.w.writeEvery == 0 {
		r.notes = append(r.notes, m)
		return
	}
	r.metrics = append(r.metrics, m)
}

// correct reports whether every answer and every end-of-run check held.
func (r *report) correct() bool { return r.wrong == 0 && len(r.endFailures) == 0 }

// print writes one "name value unit" line per metric, then the result as
// one JSON object on the last line.
func (r *report) print(w io.Writer) {
	for _, f := range r.failures {
		logf("failed: %s", f)
	}
	for _, f := range r.endFailures {
		logf("end-of-run check failed: %s", f)
	}
	fmt.Fprintf(w, "workload %s\nstream_seed %d\ncorpus_seed %d\n", r.b.w.name, r.b.o.seed, r.b.o.corpusSeed)
	fmt.Fprintf(w, "attempted %d\nfailed %d\nwrong %d\n", r.attempted, r.failed, r.wrong)
	ms := map[string]map[string]any{}
	for _, m := range r.metrics {
		fmt.Fprintf(w, "%s %g %s\n", m.name, m.value, m.unit)
		ms[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	for _, m := range r.notes {
		fmt.Fprintf(w, "%s %g %s\n", m.name, m.value, m.unit)
	}
	if ms["error_rate"] == nil {
		// Gated workloads carry it as failed/attempted of the result line.
		fmt.Fprintf(w, "error_rate %g ratio\n", ratio(float64(r.failed), float64(r.attempted)))
	}
	fmt.Fprintln(w, string(mustJSON(map[string]any{
		"correct":   r.correct(),
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   ms,
	})))
}

// ---- sample statistics -----------------------------------------------

// quantile interpolates linearly between the two nearest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms64(d time.Duration) float64 { return float64(d) / 1e6 }
func us64(d time.Duration) float64 { return float64(d) / 1e3 }

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// latencyMs, serviceMs and latenessMs list the samples' times in ms.
func latencyMs(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = ms64(s.latency())
	}
	return out
}

func serviceMs(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = ms64(s.service())
	}
	return out
}

func latenessMs(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = ms64(s.lateness())
	}
	return out
}

// split separates reads from writes.
func split(ss []sample) (reads, writes []sample) {
	for _, s := range ss {
		if s.op.write != nil {
			writes = append(writes, s)
		} else {
			reads = append(reads, s)
		}
	}
	return reads, writes
}

func ofFamily(ss []sample, f family) []sample {
	var out []sample
	for _, s := range ss {
		if s.op.read != nil && s.op.read.fam == f {
			out = append(out, s)
		}
	}
	return out
}

func succeeded(ss []sample) int {
	n := 0
	for _, s := range ss {
		if !s.failed {
			n++
		}
	}
	return n
}

func countStatus(ss []sample, statuses ...int) int {
	n := 0
	for _, s := range ss {
		for _, st := range statuses {
			if s.status == st {
				n++
			}
		}
	}
	return n
}
