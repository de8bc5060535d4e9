package main

import (
	"fmt"
	"sort"
	"time"

	"weipipe/internal/trace"
)

// breakdown is one rank-step's time split into self times. The fields sum
// to Step exactly: Unattributed is whatever the step spent outside every
// F/B/W/optimizer/stall span.
type breakdown struct {
	Iter                                        int64 // the step span's iteration
	F, B, W, OptSelf, Stall, Unattributed, Step time.Duration
}

// tracked reports whether a span code takes part in the step ledger.
func tracked(c trace.Code) bool {
	switch c {
	case trace.CodeF, trace.CodeB, trace.CodeW, trace.CodeOpt, trace.CodeStall:
		return true
	}
	return false
}

// reconcile splits every CodeStep span in events into the self times of
// the F, B, W, optimizer and stall spans its rank recorded inside it. A
// span's self time is its duration minus the spans nested directly inside
// it, so the retire-gradient stall the WeiPipe runner records inside its
// optimizer span counts once, as stall, and not again as optimizer time.
// It fails when spans of one rank overlap without nesting, which would
// make the ledger count time twice.
func reconcile(events []trace.Event) ([]breakdown, error) {
	byRank := make(map[int32][]trace.Event)
	for _, e := range events {
		if e.Code == trace.CodeStep || tracked(e.Code) {
			byRank[e.Rank] = append(byRank[e.Rank], e)
		}
	}
	ranks := make([]int32, 0, len(byRank))
	for r := range byRank {
		ranks = append(ranks, r)
	}
	sort.Slice(ranks, func(i, j int) bool { return ranks[i] < ranks[j] })

	var out []breakdown
	for _, r := range ranks {
		evs := byRank[r]
		for _, step := range evs {
			if step.Code != trace.CodeStep {
				continue
			}
			var inside []trace.Event
			for _, e := range evs {
				if e.Code != trace.CodeStep && e.Start >= step.Start && e.Start+e.Dur <= step.Start+step.Dur {
					inside = append(inside, e)
				}
			}
			b, err := stepBreakdown(step.Dur, inside)
			if err != nil {
				return nil, fmt.Errorf("rank %d step %d: %w", r, step.A, err)
			}
			b.Iter = step.A
			out = append(out, b)
		}
	}
	return out, nil
}

// stepBreakdown computes the self-time ledger of one step from the tracked
// spans that lie inside it.
func stepBreakdown(stepDur int64, spans []trace.Event) (breakdown, error) {
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].Dur > spans[j].Dur // a parent before a child that starts with it
	})
	self := make([]int64, len(spans))
	var open []int // indices of the spans enclosing the current one
	for i, e := range spans {
		for len(open) > 0 {
			top := spans[open[len(open)-1]]
			if top.Start+top.Dur > e.Start {
				break
			}
			open = open[:len(open)-1]
		}
		self[i] = e.Dur
		if len(open) > 0 {
			parent := open[len(open)-1]
			if e.Start+e.Dur > spans[parent].Start+spans[parent].Dur {
				return breakdown{}, fmt.Errorf("%s span at %d overlaps %s span without nesting",
					e.Code, e.Start, spans[parent].Code)
			}
			self[parent] -= e.Dur
		}
		open = append(open, i)
	}
	b := breakdown{Step: time.Duration(stepDur)}
	var covered time.Duration
	for i, e := range spans {
		d := time.Duration(self[i])
		covered += d
		switch e.Code {
		case trace.CodeF:
			b.F += d
		case trace.CodeB:
			b.B += d
		case trace.CodeW:
			b.W += d
		case trace.CodeOpt:
			b.OptSelf += d
		case trace.CodeStall:
			b.Stall += d
		}
	}
	b.Unattributed = b.Step - covered
	return b, nil
}

// meanBreakdown averages rank-step ledgers field by field; the mean's
// unattributed line absorbs the rounding so the mean still sums to its
// step time.
func meanBreakdown(bs []breakdown) breakdown {
	var m breakdown
	if len(bs) == 0 {
		return m
	}
	for _, b := range bs {
		m.F += b.F
		m.B += b.B
		m.W += b.W
		m.OptSelf += b.OptSelf
		m.Stall += b.Stall
		m.Step += b.Step
	}
	n := time.Duration(len(bs))
	m.F /= n
	m.B /= n
	m.W /= n
	m.OptSelf /= n
	m.Stall /= n
	m.Step /= n
	m.Unattributed = m.Step - (m.F + m.B + m.W + m.OptSelf + m.Stall)
	return m
}
