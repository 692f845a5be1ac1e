package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span roots. An "op" span covers one timed operation's wall time; "check"
// roots hold the benchmark's own output checks, "probe" roots the layer
// calls it replays beside an op on the same inputs, and "setup" roots one
// restart's replayed recovery. Layer metrics are self time per root of the
// layer's kind.
const (
	rootOp    = "op"
	rootCheck = "check"
	rootProbe = "probe"
	rootSetup = "setup"
)

// span is one recorded interval at a layer boundary.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// id reserves a span id, so children can name a parent that has not ended.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// add records a finished span.
func (t *tracer) add(id, parent, op int64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	if end.Before(start) {
		end = start
	}
	s := span{ID: id, Parent: parent, Op: op, Name: name, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// time runs f inside a new span.
func (t *tracer) time(name string, parent, op int64, f func()) {
	if t == nil {
		f()
		return
	}
	id := t.id()
	start := time.Now()
	f()
	t.add(id, parent, op, name, start, time.Now())
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceReport is the analysis of a trace: self time per layer, averaged
// over the roots of the layer's kind, and the share of op wall time that
// no layer span covers.
type traceReport struct {
	roots        map[string]int
	selfPerRoot  map[string]float64 // layer -> ms per root of its kind
	unattributed float64
}

// analyze computes every span's self time (its duration minus the union of
// its children's intervals) and folds it per layer name.
func (t *tracer) analyze() traceReport {
	rep := traceReport{roots: map[string]int{}, selfPerRoot: map[string]float64{}}
	if t == nil {
		return rep
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()

	byID := make(map[int64]*span, len(spans))
	children := make(map[int64][]*span)
	for i := range spans {
		s := &spans[i]
		byID[s.ID] = s
	}
	for i := range spans {
		s := &spans[i]
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	rootOf := func(s *span) *span {
		for s.Parent != 0 {
			p, ok := byID[s.Parent]
			if !ok {
				break
			}
			s = p
		}
		return s
	}

	selfNS := map[string]int64{}
	var opWall, opUncovered int64
	for i := range spans {
		s := &spans[i]
		self := s.End - s.Start - covered(s, children[s.ID])
		if s.Parent == 0 {
			rep.roots[s.Name]++
			if s.Name == rootOp {
				opWall += s.End - s.Start
				opUncovered += self
			}
			continue
		}
		selfNS[rootOf(s).Name+"\x00"+s.Name] += self
	}
	for key, ns := range selfNS {
		var root, name string
		for i := 0; i < len(key); i++ {
			if key[i] == 0 {
				root, name = key[:i], key[i+1:]
				break
			}
		}
		if n := rep.roots[root]; n > 0 {
			rep.selfPerRoot[name] += float64(ns) / 1e6 / float64(n)
		}
	}
	if opWall > 0 {
		rep.unattributed = float64(opUncovered) / float64(opWall)
	}
	return rep
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent *span, kids []*span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	return total + curHi - curLo
}

// print lists every layer's self time per root.
func (rep traceReport) print(w io.Writer) {
	names := make([]string, 0, len(rep.selfPerRoot))
	for n := range rep.selfPerRoot {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "trace: %d op, %d check, %d probe, %d setup roots\n",
		rep.roots[rootOp], rep.roots[rootCheck], rep.roots[rootProbe], rep.roots[rootSetup])
	for _, n := range names {
		fmt.Fprintf(w, "  self %-22s %12.4f ms\n", n, rep.selfPerRoot[n])
	}
	fmt.Fprintf(w, "  unattributed share of op wall time %.4f\n", rep.unattributed)
}
