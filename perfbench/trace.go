package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one operation share Op;
// Parent is the index of the enclosing span, or -1.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     uint64 `json:"op"`
}

// recorder keeps spans in memory for the traced run. A nil recorder records
// nothing, so untraced runs pay one nil check per span.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its id for end (and for children).
func (r *recorder) begin(name string, parent int, op uint64) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Start: now, End: -1, Parent: parent, Op: op})
	id := len(r.spans) - 1
	r.mu.Unlock()
	return id
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// add records a span whose bounds were measured by the caller.
func (r *recorder) add(name string, start, end time.Time, parent int, op uint64) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Start: start.Sub(r.epoch).Nanoseconds(),
		End: end.Sub(r.epoch).Nanoseconds(), Parent: parent, Op: op})
	id := len(r.spans) - 1
	r.mu.Unlock()
	return id
}

// layerOf is the layer a span name belongs to: the text before its first
// dot ("core.run" -> "core").
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfTimes returns each closed span's self time: its duration minus the
// part of its interval its closed children cover (overlapping children are
// counted once, and a child sticking out of its parent only counts inside).
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		type iv struct{ lo, hi int64 }
		var ivs []iv
		for _, c := range children[i] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if lo < hi {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, curLo, curHi int64
		started := false
		for _, v := range ivs {
			if !started || v.lo > curHi {
				if started {
					covered += curHi - curLo
				}
				curLo, curHi, started = v.lo, v.hi, true
			} else if v.hi > curHi {
				curHi = v.hi
			}
		}
		if started {
			covered += curHi - curLo
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// layerSelf sums self time per layer, in nanoseconds.
func layerSelf(spans []span) map[string]int64 {
	out := map[string]int64{}
	for i, st := range selfTimes(spans) {
		if spans[i].End >= 0 {
			out[layerOf(spans[i].Name)] += st
		}
	}
	return out
}

// durations returns the durations, in microseconds, of every closed span
// with the given name.
func (r *recorder) durations(name string) []float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// write dumps the spans as JSON lines followed by one line per layer with
// its total self time.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	self := layerSelf(r.spans)
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	for _, l := range layers {
		fmt.Fprintf(w, "{\"layer\":%q,\"self_ns\":%d}\n", l, self[l])
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
