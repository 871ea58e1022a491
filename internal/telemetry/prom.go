package telemetry

import (
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
)

// Histogram is a fixed-bucket cumulative histogram in Prometheus terms: the
// count of each bucket covers every observation at or below its upper
// bound, and the +Inf bucket is the total count. Fixed bounds keep an
// exposition deterministic for a given sequence of observations.
type Histogram struct {
	bounds []float64
	counts []uint64
	sum    float64
	n      uint64
}

// NewHistogram returns an empty histogram over ascending upper bounds.
func NewHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]uint64, len(bounds))}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	for i, le := range h.bounds {
		if v <= le {
			h.counts[i]++
		}
	}
	h.sum += v
	h.n++
}

// Clone returns an independent copy, so a caller can render a snapshot
// outside the lock that guards h.
func (h *Histogram) Clone() *Histogram {
	c := *h
	c.counts = slices.Clone(h.counts)
	return &c
}

// PromWriter renders the Prometheus text exposition format (version 0.0.4)
// for every metrics surface of the repository: the per-run Tracer.Metrics,
// the fleet's FleetMetrics and the fleet server's /metrics. A family is its
// HELP and TYPE lines followed by its samples; floats print in their
// shortest form and label values Go-quoted, so the same state always
// renders the same bytes.
//
// The writer keeps the first write error: it skips every later write, and
// Err returns the error, so a renderer writes its families unconditionally
// and checks once at the end.
type PromWriter struct {
	w   io.Writer
	buf []byte
	err error
}

// NewPromWriter returns a writer rendering to w.
func NewPromWriter(w io.Writer) *PromWriter { return &PromWriter{w: w} }

// Err returns the first write error, or nil.
func (p *PromWriter) Err() error { return p.err }

// family writes a family's HELP and TYPE lines; its samples follow.
func (p *PromWriter) family(name, help, typ string) {
	b := append(p.buf[:0], "# HELP "...)
	b = append(append(append(b, name...), ' '), help...)
	b = append(append(b, "\n# TYPE "...), name...)
	b = append(append(append(b, ' '), typ...), '\n')
	p.flush(b)
}

// sample writes one sample of the current family, labelled label="value",
// or unlabelled when label is empty.
func (p *PromWriter) sample(name, label, value string, v uint64) {
	b := append(p.buf[:0], name...)
	if label != "" {
		b = append(append(append(b, '{'), label...), '=')
		b = append(strconv.AppendQuote(b, value), '}')
	}
	b = append(strconv.AppendUint(append(b, ' '), v, 10), '\n')
	p.flush(b)
}

// Counter writes a counter family of one unlabelled sample.
func (p *PromWriter) Counter(name, help string, v uint64) {
	p.family(name, help, "counter")
	p.sample(name, "", "", v)
}

// Gauge writes a gauge family of one unlabelled sample.
func (p *PromWriter) Gauge(name, help string, v uint64) {
	p.family(name, help, "gauge")
	p.sample(name, "", "", v)
}

// CounterMap writes a counter family with one sample per key of m,
// labelled label="key", in sorted key order. An empty map writes the
// header alone.
func (p *PromWriter) CounterMap(name, help, label string, m map[string]uint64) {
	p.family(name, help, "counter")
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		p.sample(name, label, k, m[k])
	}
}

// Histogram writes a histogram family: one cumulative bucket per bound,
// the +Inf bucket, the sum and the count.
func (p *PromWriter) Histogram(name, help string, h *Histogram) {
	p.family(name, help, "histogram")
	for i, le := range h.bounds {
		p.bucket(name, le, h.counts[i])
	}
	p.bucket(name, math.Inf(1), h.n)
	b := append(p.buf[:0], name...)
	b = strconv.AppendFloat(append(b, "_sum "...), h.sum, 'g', -1, 64)
	b = append(append(b, '\n'), name...)
	b = append(strconv.AppendUint(append(b, "_count "...), h.n, 10), '\n')
	p.flush(b)
}

// bucket writes one histogram bucket sample; +Inf formats as "+Inf".
func (p *PromWriter) bucket(name string, le float64, v uint64) {
	b := append(append(p.buf[:0], name...), `_bucket{le="`...)
	b = append(strconv.AppendFloat(b, le, 'g', -1, 64), `"} `...)
	b = append(strconv.AppendUint(b, v, 10), '\n')
	p.flush(b)
}

// flush writes one rendered chunk unless an earlier write failed, and keeps
// b as the scratch buffer for the next.
func (p *PromWriter) flush(b []byte) {
	p.buf = b
	if p.err == nil {
		_, p.err = p.w.Write(b)
	}
}
