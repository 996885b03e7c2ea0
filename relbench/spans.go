package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"relatch/internal/obs"
)

// workRoots are the program spans an Engine.Do call reaches through the
// engine's own bookkeeping. Everything inside Do but outside them is
// engine overhead (submit, ticket, singleflight, goroutine hand-off).
var workRoots = map[string]bool{"core.retime": true, "vlib.retime": true, "cert.run": true}

// accounting splits the traced Engine.Do spans of one pass into layer
// self times and solver counters. Self time is a span's duration minus
// the part of it its children cover, so the self times of a span tree
// add up to its root's duration; whatever no child span covers inside
// core.retime / vlib.retime is their own self time, reported as
// *.unattributed rather than hidden.
type accounting struct {
	selfMS     map[string]float64 // span name → summed self time
	counters   map[string]int64   // "span.counter" → summed value
	vlibSolve  float64            // rgraph.solve time under vlib.retime
	overheadMS []float64          // per Do: Do minus its work roots
}

func newAccounting() *accounting {
	return &accounting{selfMS: map[string]float64{}, counters: map[string]int64{}}
}

// countedSpans lists the program counters the benchmark reads, keyed
// by the span that carries them.
var countedSpans = map[string][]string{
	"flow.simplex": {"pivots", "degenerate_pivots"},
	"flow.solve":   {"fallbacks"},
	"vlib.retime":  {"attempts", "relaxed"},
}

// addDo accounts one bench.do span (the benchmark's span around
// Engine.Do) and checks that its layers add up: the overhead plus the
// self times of every span under the work roots must equal the Do
// duration. A mismatch means child spans overlap or outlive their
// parents, and the layer columns would double-count.
func (a *accounting) addDo(do *obs.Span) error {
	var roots []*obs.Span
	var find func(s *obs.Span)
	find = func(s *obs.Span) {
		for _, c := range s.Children() {
			if workRoots[c.Name()] {
				roots = append(roots, c)
				continue
			}
			find(c)
		}
	}
	find(do)
	doMS := ms(do.Duration())
	overhead := doMS
	var self float64
	for _, r := range roots {
		overhead -= ms(r.Duration())
		self += a.addTree(r, r.Name() == "vlib.retime")
	}
	a.overheadMS = append(a.overheadMS, overhead)
	if gap := overhead + self - doMS; math.Abs(gap) > 1e-3+1e-6*doMS {
		return fmt.Errorf("span accounting: layers of a %.3f ms Do add up to %.3f ms", doMS, overhead+self)
	}
	return nil
}

// addTree accumulates the self times and counters of s's subtree and
// returns their sum.
func (a *accounting) addTree(s *obs.Span, underVLib bool) float64 {
	children := s.Children()
	self := ms(s.Duration() - covered(s, children))
	a.selfMS[s.Name()] += self
	for _, c := range countedSpans[s.Name()] {
		a.counters[s.Name()+"."+c] += s.Counter(c)
	}
	if underVLib && s.Name() == "rgraph.solve" {
		a.vlibSolve += ms(s.Duration())
	}
	sum := self
	for _, c := range children {
		sum += a.addTree(c, underVLib)
	}
	return sum
}

// covered returns how much of the parent's interval the union of the
// children's intervals covers.
func covered(parent *obs.Span, children []*obs.Span) time.Duration {
	pStart := parent.Start()
	pEnd := pStart.Add(parent.Duration())
	type iv struct{ lo, hi time.Time }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := c.Start(), c.Start().Add(c.Duration())
		if lo.Before(pStart) {
			lo = pStart
		}
		if hi.After(pEnd) {
			hi = pEnd
		}
		if hi.After(lo) {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo.Before(ivs[j].lo) })
	var total time.Duration
	var curLo, curHi time.Time
	for i, v := range ivs {
		switch {
		case i == 0:
			curLo, curHi = v.lo, v.hi
		case v.lo.After(curHi):
			total += curHi.Sub(curLo)
			curLo, curHi = v.lo, v.hi
		case v.hi.After(curHi):
			curHi = v.hi
		}
	}
	if len(ivs) > 0 {
		total += curHi.Sub(curLo)
	}
	return total
}

// spanMeanMS returns the mean duration of the tracer's spans with the
// given name; 0 when there are none.
func spanMeanMS(tr *obs.Tracer, name string) float64 {
	var d []float64
	for _, sp := range tr.Report().Spans(name) {
		d = append(d, ms(sp.Duration()))
	}
	return mean(d)
}
